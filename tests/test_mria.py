import csv
import multiprocessing
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import gridshock.csvrows as csvrows_module
from gridshock.errors import (
    BaselineMismatch,
    ParseError,
    UnbalancedTables,
    ValidationError,
)
from gridshock.grid import Region, RegionTable
from gridshock.mria import (
    ImpactResult,
    SupplyUseModel,
    assemble_program,
    assess_impact,
    default_penalty,
    load_supply_use,
    save_supply_use,
    shock_from_unserved,
    solve_baseline,
    technology_coefficients,
)
from gridshock.numerics import LinearProgram, lp_solve, lp_solve_stack
from gridshock.profiles import HOURS_PER_YEAR, DemandProfile, StudiedDemand
from gridshock.synthetic import generate_gb_like, generate_small

from helpers import (
    Record,
    assert_same_lp_solution,
    assert_same_solve,
    corrupt_rows,
    loadtxt_alone,
    records_of,
    table_of,
    va_of,
)
from oracles import (
    enumerate_lp,
    reference_load_supply_use,
    reference_lp_solve,
    reference_mria_program,
    reference_shock_from_unserved,
)


def one_region_model(alpha=0.0):
    """Single industry: output 100, input share 0.2, final demand 80."""
    return SupplyUseModel(
        regions=("A",),
        industries=("mfg",),
        products=("good",),
        supply=np.array([[[100.0]]]),
        use=np.array([[[20.0]]]),
        final_demand=np.array([[80.0]]),
        value_added_coeff=np.array([[0.5]]),
        trade_allowed=np.zeros((1, 1, 1), dtype=bool),
        overcapacity=alpha,
    )


def starvation_model(trade_enabled, alpha=0.2):
    """Two regions; region A's factory depends on region A's power output.

    With trade enabled, region B's spare power capacity can feed A's
    factory, softening the loss when A's power industry is shocked.
    """
    regions = ("A", "B")
    industries = ("factory", "power")
    products = ("elec", "goods")
    supply = np.zeros((2, 2, 2))
    supply[0, 1, 0] = 50.0
    supply[0, 0, 1] = 100.0
    supply[1, 1, 0] = 50.0
    use = np.zeros((2, 2, 2))
    use[0, 0, 0] = 40.0
    final = np.array([[10.0, 100.0], [50.0, 0.0]])
    va = np.full((2, 2), 0.5)
    trade = np.zeros((2, 2, 2), dtype=bool)
    if trade_enabled:
        trade[1, 0, 0] = True
    return SupplyUseModel(
        regions=regions,
        industries=industries,
        products=products,
        supply=supply,
        use=use,
        final_demand=final,
        value_added_coeff=va,
        trade_allowed=trade,
        overcapacity=alpha,
    )


def two_region_diagonal(alpha=0.0):
    supply = np.zeros((2, 2, 2))
    supply[0, 0, 0] = 100.0
    supply[0, 1, 1] = 60.0
    supply[1, 0, 0] = 80.0
    supply[1, 1, 1] = 40.0
    use = np.zeros((2, 2, 2))
    use[0, 0, 1] = 12.0
    use[0, 1, 0] = 30.0
    use[1, 0, 1] = 8.0
    use[1, 1, 0] = 16.0
    final = np.array([[88.0, 30.0], [72.0, 24.0]])
    return SupplyUseModel(
        regions=("A", "B"),
        industries=("i1", "i2"),
        products=("p1", "p2"),
        supply=supply,
        use=use,
        final_demand=final,
        value_added_coeff=np.full((2, 2), 0.4),
        trade_allowed=np.zeros((2, 2, 2), dtype=bool),
        overcapacity=alpha,
    )


def oracle_objective(model, delta, t_cap=1000.0):
    program = assemble_program(model, delta)
    hi = program.bounds[:, 1].copy()
    hi[~np.isfinite(hi)] = t_cap
    status, objective, _ = enumerate_lp(
        program.objective,
        program.a_eq,
        program.b_eq,
        program.a_ub,
        program.b_ub,
        program.bounds[:, 0],
        hi,
    )
    assert status == "optimal"
    return objective


class TestModelValidation:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            SupplyUseModel(
                regions=("A",),
                industries=("mfg",),
                products=("good",),
                supply=np.array([[[100.0]]]),
                use=np.array([[[-1.0]]]),
                final_demand=np.array([[101.0]]),
                value_added_coeff=np.array([[0.5]]),
                trade_allowed=np.zeros((1, 1, 1), dtype=bool),
            )

    def test_unbalanced_names_worst_cell(self):
        with pytest.raises(UnbalancedTables, match="region A, product good"):
            SupplyUseModel(
                regions=("A",),
                industries=("mfg",),
                products=("good",),
                supply=np.array([[[100.0]]]),
                use=np.array([[[20.0]]]),
                final_demand=np.array([[50.0]]),
                value_added_coeff=np.array([[0.5]]),
                trade_allowed=np.zeros((1, 1, 1), dtype=bool),
            )

    def test_value_added_fraction_bounded(self):
        with pytest.raises(ValidationError, match="value-added"):
            SupplyUseModel(
                regions=("A",),
                industries=("mfg",),
                products=("good",),
                supply=np.array([[[100.0]]]),
                use=np.array([[[20.0]]]),
                final_demand=np.array([[80.0]]),
                value_added_coeff=np.array([[1.5]]),
                trade_allowed=np.zeros((1, 1, 1), dtype=bool),
            )

    def test_overcapacity_range(self):
        with pytest.raises(ValidationError, match="overcapacity"):
            one_region_model(alpha=-0.1)

    def test_baseline_output_is_supply_row_sum(self):
        model = starvation_model(trade_enabled=False)
        assert np.array_equal(model.baseline_output, model.supply.sum(axis=2))


class TestTechnologyCoefficients:
    def test_one_region_values(self):
        tech = technology_coefficients(one_region_model())
        assert tech.a[0, 0, 0] == 0.2
        assert tech.s[0, 0, 0] == 1.0

    def test_inactive_industry_zeroed(self):
        tech = technology_coefficients(starvation_model(trade_enabled=False))
        # region B has no factory output, so its recipe columns are zero
        assert np.all(tech.s[1, 0] == 0.0)
        assert np.all(tech.a[1, :, 0] == 0.0)

    def test_shares_sum_to_one_for_active(self):
        model = two_region_diagonal()
        tech = technology_coefficients(model)
        sums = tech.s.sum(axis=2)
        active = model.baseline_output > 0
        assert np.allclose(sums[active], 1.0, atol=1e-12)


class TestShockArray:
    def test_fraction_range(self):
        model = starvation_model(trade_enabled=False)
        for bad in (1.2, -0.1, np.nan):
            delta = np.zeros((2, 2, 2))
            delta[1, 0, 1] = bad
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                assess_impact(model, delta)

    @pytest.mark.parametrize(
        "shape", [(2, 2), (1, 2, 2, 1), (1, 1, 2), (1, 3, 1), (1, 2, 3), (1, 2, 0)]
    )
    def test_shape_refused(self, shape):
        with pytest.raises(ValidationError, match=r"shocks must have shape \(shocks, 2, 2 or 1\)"):
            assess_impact(starvation_model(trade_enabled=False), np.zeros(shape))

    def test_region_wide_broadcasts_over_industries(self):
        # a last axis of 1 is the same shock as each industry hit alike
        model = starvation_model(trade_enabled=True)
        region_wide = np.array([[[0.3], [0.0]], [[0.0], [0.5]], [[0.8], [0.2]]])
        for ours, full in zip(
            assess_impact(model, region_wide),
            assess_impact(model, np.repeat(region_wide, 2, axis=2)),
        ):
            assert ours.delta_va.tobytes() == full.delta_va.tobytes()
            assert ours.rationing.tobytes() == full.rationing.tobytes()
            assert ours.total_cost == full.total_cost


class TestBaseline:
    def test_one_region_reproduces_tables(self):
        model = one_region_model(alpha=0.025)
        x = solve_baseline(model)
        assert np.allclose(x, [[100.0]], rtol=1e-9)

    def test_alpha_zero_identical(self):
        assert np.allclose(
            solve_baseline(one_region_model(alpha=0.0)),
            solve_baseline(one_region_model(alpha=0.025)),
            atol=1e-9,
        )

    def test_multi_region_reproduces_tables(self):
        model = two_region_diagonal(alpha=0.025)
        assert solve_baseline(model) == pytest.approx(model.baseline_output, rel=1e-6)

    def test_interchangeable_industries_mismatch(self):
        # two industries with identical product mixes: the LP picks an
        # extreme split, not the tabled 50/50, so calibration fails
        supply = np.array([[[50.0, 50.0], [50.0, 50.0]]])
        model = SupplyUseModel(
            regions=("A",),
            industries=("i1", "i2"),
            products=("p1", "p2"),
            supply=supply,
            use=np.zeros((1, 2, 2)),
            final_demand=np.array([[100.0, 100.0]]),
            value_added_coeff=np.full((1, 2), 0.5),
            trade_allowed=np.zeros((1, 1, 2), dtype=bool),
        )
        with pytest.raises(BaselineMismatch, match="region A"):
            solve_baseline(model)


# region A's power industry loses 80% of its capacity
A_POWER_80 = np.array([[[0.0, 0.8], [0.0, 0.0]]])


class TestAssessImpact:
    def test_zero_shock_identity(self):
        for model in (one_region_model(0.025), starvation_model(True)):
            [result] = assess_impact(model, np.zeros((1, len(model.regions), 1)))
            assert result.total_cost == pytest.approx(0.0, abs=1e-9)
            assert np.allclose(result.delta_va, 0.0, atol=1e-9)
            assert np.allclose(result.rationing, 0.0, atol=1e-9)

    def test_hand_solved_single_region(self):
        # capacity 90, balance 0.8x + m >= 80 gives x=90, m=8, delta va -5
        [result] = assess_impact(one_region_model(alpha=0.0), np.array([[[0.1]]]))
        assert HOURS_PER_YEAR * result.delta_va[0, 0] == -5.0
        assert HOURS_PER_YEAR * result.total_cost == 5.0
        assert HOURS_PER_YEAR * result.rationing[0, 0] == pytest.approx(8.0, abs=1e-9)

    def test_overcapacity_softens_single_region(self):
        # cap rises to 90 * 1.025 = 92.25, so the va drop shrinks to 3.875
        [result] = assess_impact(one_region_model(alpha=0.025), np.array([[[0.1]]]))
        assert HOURS_PER_YEAR * result.delta_va[0, 0] == pytest.approx(-3.875, rel=1e-9)

    def test_input_starvation_without_trade(self):
        # A's power cap falls to 0.2*1.2*50 = 12; rationing of electricity
        # final demand is capped at 10, so the factory is starved to 30
        model = starvation_model(trade_enabled=False)
        [result] = assess_impact(model, A_POWER_80)
        assert va_of(model, result, "A", "power") == pytest.approx(-19.0, rel=1e-9)
        assert va_of(model, result, "A", "factory") == pytest.approx(-35.0, rel=1e-9)
        assert va_of(model, result, "B", "power") == pytest.approx(0.0, abs=1e-9)
        assert HOURS_PER_YEAR * result.total_cost == pytest.approx(54.0, rel=1e-9)

    def test_trade_substitution_strictly_cheaper(self):
        # with imports the factory runs at full output (t=28, fed by B's
        # spare capacity plus 18 units of B's rationed final demand);
        # B's shifted rationing is priced onto its own supplier, so
        # delta va = (-19, 0, -4) against (-19, -35, 0) when closed
        model = starvation_model(trade_enabled=True)
        [closed] = assess_impact(starvation_model(trade_enabled=False), A_POWER_80)
        [open_] = assess_impact(model, A_POWER_80)
        assert HOURS_PER_YEAR * open_.total_cost == pytest.approx(23.0, rel=1e-9)
        assert va_of(model, open_, "A", "factory") == pytest.approx(0.0, abs=1e-9)
        assert va_of(model, open_, "B", "power") == pytest.approx(-4.0, rel=1e-9)
        assert HOURS_PER_YEAR * open_.total_cost < HOURS_PER_YEAR * closed.total_cost - 1.0

    def test_exporter_gains_under_mild_shock(self):
        # a 30% shock leaves A's factory supplied once B exports its pure
        # overcapacity surplus (8 units, nothing rationed), so the
        # exporting region's value added rises
        model = starvation_model(trade_enabled=True)
        [result] = assess_impact(model, np.array([[[0.0, 0.3], [0.0, 0.0]]]))
        assert va_of(model, result, "B", "power") == pytest.approx(4.0, rel=1e-9)
        assert va_of(model, result, "A", "power") == pytest.approx(-4.0, rel=1e-9)
        assert va_of(model, result, "A", "factory") == pytest.approx(0.0, abs=1e-9)
        assert HOURS_PER_YEAR * result.total_cost == pytest.approx(4.0, rel=1e-9)
        assert np.all(result.rationing == 0.0)

    def test_substitution_bound_on_random_shocks(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            a_power, a_factory, b_power = rng.uniform(0, 1), rng.uniform(0, 0.5), rng.uniform(0, 0.5)
            delta = np.array([[[a_factory, a_power], [0.0, b_power]]])
            [closed] = assess_impact(starvation_model(False), delta)
            [open_] = assess_impact(starvation_model(True), delta)
            assert HOURS_PER_YEAR * open_.total_cost <= HOURS_PER_YEAR * closed.total_cost + 1e-6

    def test_monotone_in_shock(self):
        model = two_region_diagonal(alpha=0.025)
        rng = np.random.default_rng(23)
        for _ in range(12):
            base = rng.uniform(0.0, 0.8, 4)
            extra = rng.uniform(0.0, 1.0 - base.max(), 4)
            small, larger = base.reshape(2, 2), (base + extra).reshape(2, 2)
            lesser, greater = assess_impact(model, np.stack([small, larger]))
            assert HOURS_PER_YEAR * lesser.total_cost <= HOURS_PER_YEAR * greater.total_cost + 1e-6

    def test_objective_matches_vertex_oracle(self):
        cases = [
            (one_region_model(0.025), np.array([[0.3]])),
            (one_region_model(0.0), np.array([[0.1]])),
            (starvation_model(False), np.array([[0.0, 0.8], [0.0, 0.0]])),
            (starvation_model(True), np.array([[0.0, 0.8], [0.0, 0.0]])),
        ]
        for model, delta in cases:
            program = assemble_program(model, delta)
            solution = lp_solve(program)
            assert solution.status == "optimal"
            expected = oracle_objective(model, delta)
            assert solution.objective_value == pytest.approx(expected, abs=1e-8)

    def test_default_penalty_value(self):
        # Leontief multiplier 1/(1 - 0.2) = 1.25, scaled by 10
        assert default_penalty(one_region_model()) == pytest.approx(12.5)

    def test_program_bounds(self):
        model = one_region_model(alpha=0.025)
        program = assemble_program(model, np.array([[0.1]]))
        assert program.bounds.shape == (2, 2)  # one output, no trade, one rationing
        assert program.bounds[0, 1] == pytest.approx(0.9 * 1.025 * 100.0)
        assert program.bounds[1, 1] == 80.0


def assert_matches_reference(model, delta):
    program = assemble_program(model, delta)
    expected = reference_mria_program(model, delta)
    got = (program.objective, program.a_ub, program.b_ub, program.bounds)
    for name, array, reference in zip(("objective", "a_ub", "b_ub", "bounds"), got, expected):
        assert np.array_equal(array, reference), name
        assert array.tobytes() == reference.tobytes(), name


def random_deltas(rng, model, count):
    """Shock arrays with about half the region-industries hit, some fully."""
    shape = model.baseline_output.shape
    for _ in range(count):
        delta = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.5)
        delta[rng.uniform(size=shape) < 0.1] = 1.0
        yield delta


class TestPreparedProgram:
    """The per-model program must equal the one once rebuilt per shock."""

    def test_matches_reference_on_hand_models(self):
        rng = np.random.default_rng(41)
        models = (
            one_region_model(0.025),
            starvation_model(trade_enabled=False),
            starvation_model(trade_enabled=True),
            two_region_diagonal(0.025),
            # every route allowed, the region-to-itself ones included
            replace(two_region_diagonal(), trade_allowed=np.ones((2, 2, 2), dtype=bool)),
        )
        for model in models:
            for delta in random_deltas(rng, model, 6):
                assert_matches_reference(model, delta)

    @pytest.mark.parametrize("generate", [generate_small, generate_gb_like])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_matches_reference_on_synthetic_economies(self, generate, seed):
        model = generate(seed).economy
        rng = np.random.default_rng(seed)
        assert_matches_reference(model, np.zeros(model.baseline_output.shape))
        for delta in random_deltas(rng, model, 8):
            assert_matches_reference(model, delta)

    def test_shocks_share_read_only_arrays(self):
        model = starvation_model(trade_enabled=True)
        first = assemble_program(model, np.array([[0.0, 0.8], [0.0, 0.0]]))
        second = assemble_program(model, np.array([[0.5, 0.0], [0.2, 0.1]]))
        assert first.a_ub is second.a_ub
        assert first.objective is second.objective
        assert first.b_ub is second.b_ub
        assert first.bounds is not second.bounds
        for array in (first.a_ub, first.objective, first.b_ub, model.program.bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        first.bounds[0, 1] = 0.0  # a shock's own bounds stay writable
        assert model.program.bounds[0, 1] > 0.0

    def test_per_model_parts_built_once(self, monkeypatch):
        import gridshock.mria as mria

        calls = {"technology_coefficients": 0, "default_penalty": 0}
        for name in calls:
            def counted(model, _inner=getattr(mria, name), _name=name):
                calls[_name] += 1
                return _inner(model)

            monkeypatch.setattr(mria, name, counted)
        model = two_region_diagonal(0.025)
        for fraction in (0.1, 0.4, 0.7):
            assess_impact(model, np.array([[[fraction, fraction], [0.0, fraction]]]))
        solve_baseline(model)
        assert calls == {"technology_coefficients": 1, "default_penalty": 1}
        assert not model.baseline_output.flags.writeable
        assert not model.technology.a.flags.writeable
        assert not model.supplier_share.flags.writeable


class TestAgainstHighs:
    """lp_solve against HiGHS on the pipeline's own 24 x 216 programs."""

    def test_gb_like_random_shocks(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        model = generate_gb_like(7).economy
        rng = np.random.default_rng(7)
        for delta in random_deltas(rng, model, 30):
            program = assemble_program(model, delta)
            ours = lp_solve(program)
            highs = linprog(
                program.objective,
                A_ub=program.a_ub,
                b_ub=program.b_ub,
                bounds=program.bounds,
                method="highs",
                options={
                    "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10,
                },
            )
            assert ours.status == "optimal" and highs.status == 0
            assert ours.objective_value == pytest.approx(highs.fun, rel=1e-9)


@pytest.fixture(scope="module")
def gb_model():
    return generate_gb_like(7).economy


class TestStackOnGbLikePrograms:
    """The shocks of the gb-like model solved as one stack: each returns
    what the reference kernel and its own cold solve return, bit for bit."""

    def test_random_shocks_match_reference_kernel(self, gb_model):
        # the baseline and the 30 shocks of TestAgainstHighs; every program
        # takes about 230 pivots, past the periodic refactorizations
        deltas = random_deltas(np.random.default_rng(7), gb_model, 30)
        programs = [gb_model.program, *(assemble_program(gb_model, d) for d in deltas)]
        for program, ours in zip(programs, lp_solve_stack(programs)):
            assert_same_lp_solution(ours, reference_lp_solve(program))
            assert_same_solve(ours, lp_solve(program))

    def test_region_shocks_and_zero_caps(self, gb_model):
        # region-wide shocks as shock_from_unserved builds them, each
        # output capped at zero in turn, and a shock too small to move any
        # decision of the baseline's solve
        shape = gb_model.baseline_output.shape
        deltas = []
        for r in range(shape[0]):
            for fraction in (0.05, 0.5, 1.0):
                deltas.append(np.zeros(shape))
                deltas[-1][r] = fraction
        for k in range(gb_model.baseline_output.size):
            deltas.append(np.zeros(shape))
            deltas[-1].flat[k] = 1.0
        deltas.append(np.zeros(shape))
        deltas[-1][0] = 1e-9  # z1 never nears its caps on the baseline's path
        programs = [assemble_program(gb_model, d) for d in deltas]
        solutions = lp_solve_stack(programs)
        for program, ours in zip(programs, solutions):
            assert_same_lp_solution(ours, reference_lp_solve(program))
        assert not np.array_equal(programs[-1].bounds, gb_model.program.bounds)
        assert_same_solve(solutions[-1], gb_model.baseline_solution)

    def test_results_independent_of_stack_order(self, gb_model):
        deltas = random_deltas(np.random.default_rng(7), gb_model, 30)
        shocks = np.stack([np.zeros(gb_model.baseline_output.shape), *deltas])
        forward = assess_impact(gb_model, shocks)
        backward = assess_impact(gb_model, shocks[::-1])[::-1]
        halves = assess_impact(gb_model, shocks[:13]) + assess_impact(gb_model, shocks[13:])
        for ours, *others in zip(forward, backward, halves):
            for other in others:
                assert ours.delta_va.tobytes() == other.delta_va.tobytes()
                assert ours.rationing.tobytes() == other.rationing.tobytes()
                assert ours.total_cost == other.total_cost
                assert ours.iterations == other.iterations
        assert forward[0].iterations == 0
        assert min(result.iterations for result in forward[1:]) > 0


def first_entries(path, n_columns):
    """Entry at which each of the first n_columns first enters the basis."""
    first = {}
    for k, j in enumerate(path.entering.tolist()):
        if 0 <= j < n_columns:
            first.setdefault(j, k)
    return first


def cap_tying_the_step(path, k, r):
    """A cap for the basic column in row r at entry k whose ratio-test
    limit, by the stack's own arithmetic, equals that entry's step; None
    where no cap within 64 ulps of the exact one does."""
    xb, speed, step = path.xb[k, r], -path.delta[k, r], path.step[k]
    cap = xb + step * speed
    for _ in range(64):
        limit = max(cap - xb, 0.0) / speed
        if limit == step:
            return cap
        cap = np.nextafter(cap, np.inf if limit < step else -np.inf)
    return None


def with_output_cap(model, column, cap):
    bounds = model.program.bounds.copy()
    bounds[column, 1] = cap
    return replace(model.program, bounds=bounds)


class TestPathOnGbLikePrograms:
    """Shocks start on the baseline's recorded pivot path, and each
    returns what its cold solve and the reference kernel return, bit for
    bit, with the iterations before its entry counted as replayed."""

    def check(self, path, programs, entries=None):
        solutions = lp_solve_stack(programs, path=path)
        his = np.array([program.bounds[:, 1] for program in programs])
        found = path.resume_entries(his)
        if entries is not None:
            assert found.tolist() == entries
        for program, ours, entry in zip(programs, solutions, found.tolist()):
            assert_same_lp_solution(ours, reference_lp_solve(program))
            assert_same_solve(ours, lp_solve(program))
            states = path.states
            assert ours.replayed == states["iterations"][entry] + states["stage_iterations"][entry]
        return solutions, found

    def test_region_shocks_resume_in_phase_two(self, gb_model):
        # phase 1 only serves final demand; region-wide shocks, as
        # shock_from_unserved builds them, first diverge in phase 2
        path = gb_model.baseline_solution.path
        fractions = (0.05, 0.5, 1.0)
        shocks = region_shocks(gb_model, [f for f in fractions for _ in gb_model.regions])
        _, entries = self.check(path, [assemble_program(gb_model, d) for d in shocks])
        assert (path.states["stage"][entries] > 0).all()

    def test_zero_cap_on_the_column_that_enters_last(self, gb_model):
        path = gb_model.baseline_solution.path
        first = first_entries(path, gb_model.baseline_output.size)
        column, entry = max(first.items(), key=lambda item: item[1])
        self.check(path, [with_output_cap(gb_model, column, 0.0)], [entry])

    def test_limit_equal_to_step_resumes_there(self, gb_model):
        path = gb_model.baseline_solution.path
        n_x = gb_model.baseline_output.size
        first = first_entries(path, n_x)
        tried = 0
        for k in np.flatnonzero(path.entering >= 0).tolist():
            basis = path.states["basis"][k]
            for r in np.flatnonzero((basis < n_x) & (path.delta[k] < -1e-10)).tolist():
                column = int(basis[r])
                if not first[column] < k or path.step[k] == 0.0:
                    continue
                cap = cap_tying_the_step(path, k, r)
                if cap is None or cap == gb_model.program.bounds[column, 1]:
                    continue  # no tie, or the recorded leaving column's own cap
                tied = with_output_cap(gb_model, column, cap)
                # one ulp more and the limit clears the step
                looser = with_output_cap(gb_model, column, np.nextafter(cap, np.inf))
                his = np.array([tied.bounds[:, 1], looser.bounds[:, 1]])
                at, after = path.resume_entries(his).tolist()
                if at != k:
                    continue  # an earlier entry already reads the cap
                assert after > k
                self.check(path, [tied, looser])
                tried += 1
                if tried == 3:
                    return
        raise AssertionError(f"only {tried} tied caps resume at their entry")

    def test_tiny_shock_returns_the_baseline_vertex(self, gb_model):
        baseline = gb_model.baseline_solution
        delta = np.zeros(gb_model.baseline_output.shape)
        delta[0] = 1e-9  # z1 never nears its caps on the recorded path
        program = assemble_program(gb_model, delta)
        assert not np.array_equal(program.bounds, gb_model.program.bounds)
        [ours], _ = self.check(baseline.path, [program], [baseline.path.entering.size - 1])
        assert ours.replayed == ours.iterations == baseline.iterations
        assert_same_solve(ours, baseline)


def region_shocks(model, fractions):
    """One region-wide shock per fraction, each on region k % regions."""
    shocks = np.zeros((len(fractions), len(model.regions), 1))
    for k, fraction in enumerate(fractions):
        shocks[k, k % len(model.regions)] = fraction
    return shocks


def assert_same_impacts(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.delta_va.tobytes() == b.delta_va.tobytes()
        assert a.rationing.tobytes() == b.rationing.tobytes()
        assert (a.total_cost, a.iterations, a.replayed) == (b.total_cost, b.iterations, b.replayed)


class TestImpactPool:
    """assess_impact solves its programs in one fork pool, in contiguous
    chunks, one per CPU: the results do not depend on the CPU count."""

    def test_results_do_not_depend_on_cpu_count(self, gb_model, pool_sizes):
        started, cpus = pool_sizes
        # region-wide and per-industry shocks, among them two zero ones
        region_wide = region_shocks(gb_model, [0.0, 0.2, 0.0, 0.6, 1.0])
        per_industry = np.stack(list(random_deltas(np.random.default_rng(3), gb_model, 8)))
        shape = per_industry.shape[1:]
        shocks = np.concatenate([np.broadcast_to(region_wide, (5, *shape)), per_industry])
        results = []
        for n in (1, 2, 6):
            cpus(n)
            results.append(assess_impact(gb_model, shocks))
            assert not multiprocessing.active_children()
        assert started == [2, 6]  # one CPU solves in this process
        assert_same_impacts(results[0], results[1])
        assert_same_impacts(results[0], results[2])
        assert [r.iterations > 0 for r in results[0]] == [False, True, False] + [True] * 10

    def test_one_program(self, gb_model, pool_sizes):
        started, cpus = pool_sizes
        cpus(2)
        shocks = region_shocks(gb_model, [0.0, 0.5, 0.0])
        zero, shocked, _ = assess_impact(gb_model, shocks)
        assert started == []  # one chunk is solved in this process
        alone = lp_solve(assemble_program(gb_model, shocks[1]))
        assert shocked.iterations == alone.iterations > 0
        assert shocked.total_cost > 0.0
        assert zero.total_cost == 0.0 and not zero.delta_va.any()

    def test_no_program_starts_no_pool(self, gb_model, pool_sizes):
        started, cpus = pool_sizes
        cpus(2)
        results = assess_impact(gb_model, region_shocks(gb_model, [0.0] * 4))
        assert started == []
        assert [(r.total_cost, r.iterations) for r in results] == [(0.0, 0)] * 4
        assert not any(r.delta_va.any() or r.rationing.any() for r in results)
        assert assess_impact(gb_model, np.zeros((0, len(gb_model.regions), 1))) == []
        assert started == []

    def test_more_cpus_than_programs(self, gb_model, pool_sizes):
        started, cpus = pool_sizes
        shocks = region_shocks(gb_model, [0.3, 0.0, 0.7, 1.0])
        cpus(6)
        spread = assess_impact(gb_model, shocks)
        cpus(1)
        assert_same_impacts(spread, assess_impact(gb_model, shocks))
        assert started == [3]
        assert not multiprocessing.active_children()


class TestImpactResult:
    def test_total_cost_consistency_enforced(self):
        with pytest.raises(ValidationError, match="total cost"):
            ImpactResult(delta_va=np.array([[-5.0]]), rationing=np.zeros((1, 1)), total_cost=1.0)


class TestShockFromUnserved:
    def regions(self):
        return RegionTable(
            regions=(
                Region("d1", "R1", 100.0, 10.0, 1.0),
                Region("d2", "R1", 200.0, 20.0, 1.0),
                Region("d3", "R2", 300.0, 30.0, 1.0),
            )
        )

    def profile(self, demands):
        profile = DemandProfile(
            scenario="current",
            regions=("d1", "d2", "d3"),
            hours=np.array([0]),
            demand_mw=np.array(demands, dtype=float).reshape(3, 1),
        )
        return StudiedDemand.from_profile(profile, [0])

    def table(self, unserved):
        return table_of([Record(0, 0.2, "current", 0, unserved)])

    def shock(self, unserved, demands, economy=("R1", "R2")):
        """The one record's shock as {economic region: loss fraction}."""
        shocks = shock_from_unserved(
            self.table(unserved), self.regions(), {"current": self.profile(demands)}, economy
        )
        assert shocks.shape == (1, len(economy))
        return SimpleNamespace(delta=dict(zip(economy, shocks[0].tolist())))

    def test_quarter_loss(self):
        shock = self.shock({"d1": 50.0, "d2": 0.0, "d3": 0.0}, [200.0, 0.0, 100.0])
        assert shock.delta["R1"] == 0.25
        assert shock.delta["R2"] == 0.0

    def test_aggregates_districts(self):
        shock = self.shock({"d1": 30.0, "d2": 20.0, "d3": 10.0}, [100.0, 100.0, 100.0])
        assert shock.delta["R1"] == 0.25
        assert shock.delta["R2"] == pytest.approx(0.1)

    def test_full_loss_capped_at_one(self):
        shock = self.shock({"d1": 200.0, "d2": 0.0, "d3": 0.0}, [150.0, 0.0, 50.0])
        assert shock.delta["R1"] == 1.0

    def test_zero_demand_region_zero_shock(self):
        shock = self.shock({"d1": 0.0, "d2": 0.0, "d3": 0.0}, [0.0, 0.0, 0.0])
        assert shock.delta == {"R1": 0.0, "R2": 0.0}

    def test_columns_follow_the_economy(self):
        # columns in the order given; a region with no district takes zero
        unserved = {"d1": 30.0, "d2": 20.0, "d3": 10.0}
        shock = self.shock(unserved, [100.0, 100.0, 100.0], economy=("R2", "R0", "R1"))
        assert list(shock.delta) == ["R2", "R0", "R1"]
        assert shock.delta == {"R2": pytest.approx(0.1), "R0": 0.0, "R1": 0.25}

    def test_parent_outside_the_economy(self):
        with pytest.raises(ValidationError, match="district d3 has parent R2, which is not"):
            self.shock({"d1": 0.0, "d2": 0.0, "d3": 0.0}, [1.0, 1.0, 1.0], economy=("R1",))

    def test_unknown_district(self):
        with pytest.raises(ValidationError, match="UNKNOWN"):
            self.shock({"UNKNOWN": 1.0}, [1.0, 1.0, 1.0])

    def test_unstudied_hour(self):
        table = table_of([Record(0, 0.2, "current", 5, {"d1": 1.0, "d2": 0.0, "d3": 0.0})])
        with pytest.raises(ValidationError, match="no studied demand at hour 5"):
            shock_from_unserved(
                table, self.regions(), {"current": self.profile([1.0, 1.0, 1.0])}, ("R1", "R2")
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_record_reference(self, seed):
        # 2 scenarios x 3 hours, districts under 1-4 parents, mostly-zero
        # unserved power and some zero-demand districts
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        districts = [f"d{k:02d}" for k in range(n)]
        parents = [f"R{int(rng.integers(0, 4))}" for _ in districts]
        regions = RegionTable(
            regions=tuple(Region(d, p, 1.0, 1.0, 1.0) for d, p in zip(districts, parents))
        )
        hours = np.array([3, 10, 17])
        demands = {}
        for scenario in ("current", "flat"):
            demand = rng.uniform(0.0, 500.0, (n, 3)) * (rng.random((n, 1)) < 0.8)
            profile = DemandProfile(scenario, tuple(districts), hours, demand)
            demands[scenario] = StudiedDemand.from_profile(profile, hours)
        records = []
        for key in range(int(rng.integers(1, 30))):
            unserved = rng.uniform(0.0, 600.0, n) * (rng.random(n) < 0.3)
            records.append(
                Record(key, 0.1, str(rng.choice(["current", "flat"])), int(rng.choice(hours)),
                       dict(zip(districts, unserved.tolist())))
            )
        table = table_of(records)
        # R4 parents no district, so its column stays zero
        economy = tuple(sorted({*parents, "R4"}))
        shocks = shock_from_unserved(table, regions, demands, economy)
        for record, row in zip(records_of(table), shocks.tolist()):
            expected = reference_shock_from_unserved(
                record.unserved_mw_per_region, record.hour, regions, demands[record.scenario]
            )
            assert [expected.get(name, 0.0).hex() for name in economy] == [v.hex() for v in row]


class TestSupplyUseIO:
    def test_round_trip(self, tmp_path):
        model = starvation_model(trade_enabled=True)
        save_supply_use(model, tmp_path)
        loaded = load_supply_use(tmp_path, overcapacity=model.overcapacity)
        assert loaded.regions == model.regions
        assert loaded.industries == model.industries
        assert loaded.products == model.products
        assert np.array_equal(loaded.supply, model.supply)
        assert np.array_equal(loaded.use, model.use)
        assert np.array_equal(loaded.final_demand, model.final_demand)
        assert np.array_equal(loaded.value_added_coeff, model.value_added_coeff)
        assert np.array_equal(loaded.trade_allowed, model.trade_allowed)

    def test_baseline_output_matches_file_sums(self, tmp_path):
        save_supply_use(starvation_model(False), tmp_path)
        model = load_supply_use(tmp_path)
        sums: dict[tuple[str, str], float] = {}
        with open(tmp_path / "supply.csv", newline="") as handle:
            for row in list(csv.reader(handle))[1:]:
                key = (row[0], row[1])
                sums[key] = sums.get(key, 0.0) + float(row[3])
        for (region, industry), total in sums.items():
            r = model.regions.index(region)
            i = model.industries.index(industry)
            assert model.baseline_output[r, i] == pytest.approx(total, rel=1e-12)

    def test_negative_use_entry_rejected(self, tmp_path):
        save_supply_use(one_region_model(), tmp_path)
        use = tmp_path / "use.csv"
        use.write_text("region,product,industry,value\nA,good,mfg,-20.0\n")
        final = tmp_path / "final_demand.csv"
        final.write_text("region,product,value\nA,good,120.0\n")
        with pytest.raises(ValidationError, match="nonnegative"):
            load_supply_use(tmp_path)

    def test_unbalanced_file_rejected(self, tmp_path):
        save_supply_use(one_region_model(), tmp_path)
        (tmp_path / "final_demand.csv").write_text("region,product,value\nA,good,10.0\n")
        with pytest.raises(UnbalancedTables, match="region A, product good"):
            load_supply_use(tmp_path)

    def test_bad_header(self, tmp_path):
        save_supply_use(one_region_model(), tmp_path)
        (tmp_path / "supply.csv").write_text("region,value\n")
        with pytest.raises(ParseError, match="^supply.csv line 1: expected header region,industry,product,value, got region,value$"):
            load_supply_use(tmp_path)

    def test_bad_trade_flag(self, tmp_path):
        save_supply_use(one_region_model(), tmp_path)
        (tmp_path / "trade.csv").write_text("from,to,product,allowed\nA,A,good,maybe\n")
        with pytest.raises(ParseError, match="^trade.csv line 2: allowed must be 0/1/true/false$"):
            load_supply_use(tmp_path)

    @pytest.mark.parametrize("table", ["supply", "use", "final_demand", "value_added", "trade"])
    def test_repeated_row_refused(self, tmp_path, table):
        # one rule in every table: a repeated key is neither summed nor
        # overwritten, but refused on its line
        save_supply_use(starvation_model(trade_enabled=True), tmp_path)
        path = tmp_path / f"{table}.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines()
        *ids, value = first.split(",")
        padded = ",".join([f" {label} " for label in ids] + [value])  # the same ids once stripped
        path.write_text("\n".join([header, first, *rest, padded]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as error:
            load_supply_use(tmp_path)
        assert str(error.value) == f"{table}.csv line {len(rest) + 3}: repeated row {ids!r}"

    @pytest.mark.parametrize(
        "row, message",
        [('"A",mfg,good,100.0', "quoted fields are not supported"), ("  ", "expected 4 fields, got 1")],
    )
    def test_quote_or_line_of_blanks_refused(self, tmp_path, row, message):
        # the grammar of every table: neither is read nor skipped
        save_supply_use(one_region_model(), tmp_path)
        lines = (tmp_path / "supply.csv").read_text(encoding="utf-8").splitlines()
        (tmp_path / "supply.csv").write_text("\n".join([lines[0], row, *lines[1:]]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as error:
            load_supply_use(tmp_path)
        assert str(error.value) == f"supply.csv line 2: {message}"

    @pytest.mark.parametrize("axis", ["regions", "industries", "products"])
    def test_writer_refuses_ids_csv_would_quote(self, tmp_path, axis):
        model = replace(one_region_model(), **{axis: ("a,b",)})
        with pytest.raises(ValidationError, match="id 'a,b' needs csv quoting"):
            save_supply_use(model, tmp_path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("region", [" A", "A ", "\tA"])
    def test_writer_refuses_ids_with_surrounding_blanks(self, tmp_path, region):
        # the reader strips them, so the file would read back as region 'A'
        model = replace(one_region_model(), regions=(region,))
        with pytest.raises(ValidationError) as error:
            save_supply_use(model, tmp_path)
        assert str(error.value) == f"region id {region!r} has surrounding blanks"
        assert not list(tmp_path.iterdir())


SUPPLY_ROW = np.dtype([("region", object), ("industry", object), ("product", object), ("value", float)])


def first_bad_supply_line(rows: list[str]) -> int | None:
    """The line of the first of supply.csv's data `rows` that loadtxt
    refuses alone, that holds a quote, or whose ids (blanks stripped) an
    earlier row holds."""
    seen = set()
    for number, row in enumerate(rows, start=2):
        if not row:
            continue  # a line holding only its line end
        fields = loadtxt_alone(row, SUPPLY_ROW)
        if fields is None or '"' in row:
            return number
        key = tuple(label.strip() for label in fields[:3])
        if key in seen:
            return number
        seen.add(key)
    return None


class TestSupplyFuzz:
    @pytest.mark.parametrize("seed", range(50))
    def test_refused_on_its_first_bad_line_or_read_as_the_reference(self, tmp_path, monkeypatch, gb_model, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(csvrows_module, "_CHUNK_ROWS", int(rng.choice([1, 7, 50_000])))
        save_supply_use(gb_model, tmp_path)
        path = tmp_path / "supply.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        # blanks around some ids, which the reader strips
        rows = [
            ",".join(f" {field} " if k < 3 and rng.random() < 0.1 else field for k, field in enumerate(row.split(",")))
            for row in rows
        ]
        texts = ["x", "1_0", "nan", "99999999999999999999", "7.5", "\u0661", "z1", " factory "]
        rows = corrupt_rows(rng, rows, texts)
        ending = str(rng.choice(["\n", "\r\n", "\r"]))
        path.write_bytes((ending.join([header, *rows]) + ending).encode("utf-8"))
        bad = first_bad_supply_line(rows)
        if bad is not None:
            with pytest.raises(ParseError) as error:
                load_supply_use(tmp_path)
            assert error.value.line == bad
            return
        try:
            reference = reference_load_supply_use(tmp_path)
        except ValidationError as error:  # unbalanced, or a NaN value
            with pytest.raises(type(error)) as mine:
                load_supply_use(tmp_path)
            assert str(mine.value) == str(error)
            return
        model = load_supply_use(tmp_path)
        assert (model.regions, model.industries, model.products) == (
            reference.regions, reference.industries, reference.products
        )
        for name in ("supply", "use", "final_demand", "value_added_coeff", "trade_allowed"):
            assert getattr(model, name).tobytes() == getattr(reference, name).tobytes()
