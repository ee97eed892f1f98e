import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelavg.estimators
import modelavg.experiments
import modelavg.model
import modelavg.resampling
from modelavg.cli import main
from modelavg.errors import CollinearDesign, TooManySingularResamples, ZeroColumn
from modelavg.estimators import ESTIMATOR_NAMES, Pipeline, make_pipeline
from modelavg.experiments import (
    _TAG_TRUTH,
    Scenario,
    _ks_arrays,
    _own_counts,
    _grid,
    _n_cells,
    block_rows,
    clear_memo,
    draw_dataset,
    ks_ratio_curve,
    make_scenario,
    mc_estimator_draws,
    mse_curve,
    resampling_error_curve,
    risk_bound_sweep,
    single_fit,
    stream,
    weight_decay_sweep,
)
from modelavg.model import (
    Dataset,
    DesignMatrix,
    TrueParams,
    compute_design_stats,
)
from modelavg.resampling import (
    ResamplePlan,
    paired_bootstrap,
    resampled_estimates,
    subsample_distribution,
)
from modelavg.weights import AdaptiveConfig, PretestConfig, default_tuning

from conftest import error_row_reference, ks_oracle, layout_indices, stacked_sums_engine


def _integer_scenario(beta=0.0, sigma=0.0, n=8, reps=40, seed=5):
    design = DesignMatrix(np.ones(n), np.arange(float(n)))
    return Scenario(
        design=design,
        params=TrueParams(alpha=2.0, beta=beta, sigma=sigma),
        pretest=PretestConfig(),
        adaptive=default_tuning(n),
        reps=reps,
        seed=seed,
    )


def _uniform_scenario(beta=0.0, sigma=1.0, n=50, reps=5000, seed=101, c=PretestConfig.c):
    return make_scenario(n=n, seed=seed, reps=reps, alpha=1.0, beta=beta, sigma=sigma, c=c)


# ---------------------------------------------------------------------------
# two-sample KS


def test_ks_identical_samples():
    s = np.array([0.3, -1.0, 2.0])
    assert _ks_arrays(s, s) == 0.0


def test_ks_disjoint_supports():
    assert _ks_arrays(np.array([0.0, 1.0]), np.array([10.0, 11.0])) == 1.0


def test_ks_interleaved_half():
    assert _ks_arrays(np.array([1.0, 2.0]), np.array([1.5, 2.5])) == 0.5


def _ks_brute_force(x, y):
    # Double loop over every sample point, evaluating both ECDFs directly.
    best = 0.0
    for t in list(x) + list(y):
        fx = sum(1 for v in x if v <= t) / len(x)
        fy = sum(1 for v in y if v <= t) / len(y)
        best = max(best, abs(fx - fy))
    return best


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    y=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
)
def test_ks_matches_brute_force_and_is_symmetric(x, y):
    a, b = np.array(x), np.array(y)
    d = _ks_arrays(a, b)
    assert 0.0 <= d <= 1.0
    assert d == _ks_arrays(b, a)
    assert d == pytest.approx(_ks_brute_force(x, y), abs=1e-12)


def _ks_merged_grid(x, y):
    # Dense oracle: both right-continuous ECDFs on the sorted union grid.
    xs, ys = np.sort(x), np.sort(y)
    grid = np.sort(np.concatenate([xs, ys]))
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


_tied = st.integers(-4, 4).map(float)
_spread = st.floats(-50, 50)


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(st.lists(_tied, min_size=1, max_size=60), st.lists(_spread, min_size=1, max_size=60)),
    y=st.one_of(st.lists(_tied, min_size=1, max_size=7), st.lists(_spread, min_size=1, max_size=300)),
)
def test_ks_equals_merged_grid_oracle_exactly(x, y):
    # Evaluating only at the rows' own points must give the very same float
    # as the merged grid, for either argument order (so whichever sample is
    # larger) and with ties.
    x, y = np.array(x), np.array(y)
    expected = _ks_merged_grid(x, y)
    assert _ks_arrays(x, y) == expected
    assert _ks_arrays(y, x) == expected


def test_ks_rows_on_the_truth_points_equal_the_merged_grid_oracle(rng):
    # Every row point ties a value of x, often several times over, so the
    # count of x below it comes from the second search on tied points: rows
    # drawn from x, rows of values repeated five times, and x's extremes
    # beside points just outside its range. Each row must give the merged
    # grid's float, with x of distinct values and with x tied itself.
    for x in (rng.normal(size=200), np.round(rng.normal(size=200), 1)):
        lo, hi = x.min(), x.max()
        block = np.vstack([
            rng.choice(x, size=(6, 40)),
            np.repeat(rng.choice(x, size=(6, 8)), 5, axis=1),
            np.repeat([[lo - 1.0, lo, hi, hi + 1.0], [lo, lo, hi, hi]], 10, axis=1),
        ])
        expected = [_ks_merged_grid(x, row) for row in block]
        assert np.array_equal(_ks_arrays(x, block), expected)
        assert expected == [ks_oracle(x, row) for row in block]


def test_ks_brute_force_oracle_larger_samples(rng):
    for _ in range(10):
        x = rng.normal(size=int(rng.integers(5, 200)))
        y = rng.normal(0.3, 1.2, size=int(rng.integers(5, 200)))
        d = _ks_arrays(x, y)
        assert d == pytest.approx(_ks_brute_force(x, y), abs=1e-12)


def test_ks_rows_equal_the_one_sample_oracle_row_by_row(rng):
    # A 2-D block gives one float per row, each the very float of the 1-D
    # oracle, in every orientation; a 1-D sample still gives a float.
    def normal(size):
        return rng.normal(0.2, 1.1, size=size)

    def tied(size):
        return np.round(rng.normal(size=size), 1)

    cases = [
        (normal(300), normal((7, 40))),  # x larger
        (normal(25), normal((6, 90))),  # x smaller
        (normal(50), normal((5, 50))),  # equal sizes
        (tied(60), tied((8, 30))),
        (tied(30), tied((8, 60))),
        (tied(40), tied((8, 40))),
        (normal(80), normal((1, 20))),  # a single row
        (normal(20), normal((1, 80))),
    ]
    for x, rows in cases:
        expected = [ks_oracle(x, row) for row in rows]
        assert np.array_equal(_ks_arrays(x, rows), expected)
        for row, value in zip(rows, expected):
            one = _ks_arrays(x, row)
            assert type(one) is float and one == value
    # An engine call that keeps no dataset gives a (0, b) block: no distances.
    none = _ks_arrays(normal(30), np.empty((0, 40)))
    assert isinstance(none, np.ndarray) and none.shape == (0,)


def test_ks_table_entries_equal_the_one_pair_call_and_the_oracle(rng):
    # A 2-D x is a stack of references (figure1b's R and U): entry (i, j) of
    # the table must be the very float of reference i against row j alone.
    def normal(shape):
        return rng.normal(0.2, 1.1, size=shape)

    def tied(shape):
        return rng.integers(-3, 4, size=shape).astype(float)

    constant = np.full((2, 20), 0.5)
    cases = [
        (normal((2, 300)), normal((3, 40))),  # references larger
        (normal((2, 25)), normal((3, 90))),  # references smaller
        (tied((2, 60)), tied((3, 60))),  # integer ties, equal sizes
        (tied((3, 30)), normal((2, 50))),
        (constant, np.vstack([constant[0], np.zeros(20), normal(20)])),
        (normal((1, 50)), tied((4, 50))),  # one reference
    ]
    for refs, rows in cases:
        table = _ks_arrays(refs, rows)
        assert table.shape == (len(refs), len(rows))
        for i, ref in enumerate(refs):
            for j, row in enumerate(rows):
                assert table[i, j] == _ks_arrays(ref, row) == ks_oracle(ref, row)
    # An empty (0, b) block, as an engine call that keeps no dataset returns,
    # gives a table with no columns.
    empty = _ks_arrays(normal((2, 30)), np.empty((0, 40)))
    assert isinstance(empty, np.ndarray) and empty.shape == (2, 0)


def test_own_counts_equal_a_search_of_each_row_in_itself(rng):
    # Tie-free rows take the plain ranks and tied ones the accumulate passes;
    # both must count what searching each sorted row in itself counts.
    blocks = (
        rng.normal(size=(4, 30)),
        rng.integers(-3, 4, size=(4, 30)).astype(float),
        np.vstack([rng.normal(size=30), np.zeros(30)]),  # one tied row of two
    )
    for block in blocks:
        s = np.sort(block, axis=1)
        le, lt = (np.broadcast_to(c, s.shape) for c in _own_counts(s))
        assert np.array_equal(le, [np.searchsorted(row, row, "right") for row in s])
        assert np.array_equal(lt, [np.searchsorted(row, row, "left") for row in s])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_refuses_a_sample_that_is_not_finite(bad, rng):
    # A distance from a sample holding nan or inf would be a finite number
    # that measures nothing; sorted, the bad value sits at an end of its row.
    x, rows = rng.normal(size=30), rng.normal(size=(4, 20))
    bad_x, bad_rows = x.copy(), rows.copy()
    bad_x[7] = bad
    bad_rows[2, 5] = bad
    for args in ((bad_x, rows), (bad_x, rows[0]), (x, bad_rows), (x, bad_rows[2])):
        with pytest.raises(ValueError, match="KS distance needs finite samples"):
            _ks_arrays(*args)
    assert _ks_arrays(x, np.empty((0, 20))).shape == (0,)


def test_a_ks_ratio_curve_whose_estimates_overflow_is_refused():
    # Library objects take any finite sigma; at 1e307 the products overflow
    # and every estimate is nan or inf, which the KS distance refuses.
    scenario = make_scenario(n=20, seed=3, reps=50, sigma=1e307)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="^KS distance needs finite samples"):
            ks_ratio_curve([0.0, 0.5], scenario)


# ---------------------------------------------------------------------------
# Monte Carlo sampling distributions


def test_batch_matches_scalar_pipeline():
    # Two blocks and a ragged third: every response, replayed from the cell's
    # noise stream, refits through the scalar pipeline to round-off.
    scenario = _uniform_scenario(beta=0.3, reps=2 * block_rows(20) + 3, n=20, seed=33)
    names = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    clear_memo()
    batch = mc_estimator_draws(scenario, names, grid_index=2)[0]
    noise = stream(scenario.seed, 1, 2).standard_normal((scenario.reps, 20))
    pipeline = scenario.pipeline(names)
    for row in range(scenario.reps):
        y = (
            scenario.params.alpha * scenario.design.x1
            + scenario.params.beta * scenario.design.x2
            + noise[row]
        )
        est, _ = pipeline.fit(Dataset(scenario.design, y))
        for name in names:
            assert batch[name][row] == pytest.approx(est[name], rel=1e-11), name


def test_blocked_draw_is_bit_identical_to_one_whole_block(monkeypatch):
    # One row per block, the default blocks and one whole (reps, n) block give
    # the same floats. The cases: a lone short block, a full block plus a
    # ragged one of 3 rows, and many blocks ending in a ragged one; at sigma = 0
    # and 1.
    default = modelavg.experiments._BLOCK_VALUES
    cases = [
        (reps, n, sigma)
        for n in (2, 50, 800)
        for reps in (1, 3, block_rows(n) + 3, 5001)
        for sigma in (0.0, 1.0)
    ]
    for reps, n, sigma in cases:
        scenario = make_scenario(n=n, seed=61, reps=reps, beta=0.3, sigma=sigma)
        draws = []
        for values in (1, default, reps * n):
            monkeypatch.setattr(modelavg.experiments, "_BLOCK_VALUES", values)
            clear_memo()
            draws.append(mc_estimator_draws(scenario, ESTIMATOR_NAMES, 3))
        for blocked in draws[:2]:
            for a, b in zip(blocked, draws[2]):  # the estimates, then the weights
                assert a.keys() == b.keys(), (reps, n, sigma)
                assert all(np.array_equal(a[k], b[k]) for k in a), (reps, n, sigma)
    clear_memo()


def test_block_rows_are_at_least_one_and_near_the_block_size():
    values = modelavg.experiments._BLOCK_VALUES
    for n in (*range(1, 3000), 4095, 4096, values - 1, values, values + 1, 10**5, 10**6):
        rows = block_rows(n)
        assert rows >= 1 and rows * n <= max(values, n)
        assert rows == 1 or (rows + 1) * n > values


def test_a_drawn_cell_holds_no_noise_block_of_its_size():
    # The noise of a cell at reps = 5000, n = 800 takes 31 MiB whole; drawn
    # block by block, the cell's peak is its products, estimates and one block.
    scenario = make_scenario(n=800, seed=17, reps=5000, beta=0.3)
    clear_memo()
    tracemalloc.start()
    try:
        mc_estimator_draws(scenario, ("r", "u", "ms", "bma_exact", "bma_bic", "ama"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_mc_noiseless_null_draws_exactly_zero():
    scenario = _integer_scenario(beta=0.0, sigma=0.0)
    names = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    draws = mc_estimator_draws(scenario, names)[0]
    for name in names:
        centered = np.sqrt(scenario.design.n) * (draws[name] - scenario.params.alpha)
        assert np.all(centered == 0.0), name


def test_mc_unrestricted_variance_matches_closed_form():
    scenario = _uniform_scenario(beta=0.4, reps=5000, seed=7)
    stats = compute_design_stats(scenario.design)
    draws = mc_estimator_draws(scenario, ("u",))[0]["u"]
    centered = np.sqrt(scenario.design.n) * (draws - scenario.params.alpha)
    expected = scenario.design.n * stats.s22 / stats.det  # n * Var(alpha_u)
    assert centered.var(ddof=1) == pytest.approx(expected, rel=0.05)


def test_mc_restricted_unbiased_at_null():
    scenario = _uniform_scenario(beta=0.0, reps=5000, seed=8)
    stats = compute_design_stats(scenario.design)
    draws = mc_estimator_draws(scenario, ("r",))[0]["r"]
    centered = np.sqrt(scenario.design.n) * (draws - scenario.params.alpha)
    se = np.sqrt(scenario.design.n / stats.s11 / scenario.reps)  # sd of the mean
    assert abs(centered.mean()) < 3 * se * np.sqrt(scenario.design.n)


def test_mc_determinism_and_common_random_numbers():
    scenario = _uniform_scenario(beta=0.2, reps=200, seed=9)
    d1 = mc_estimator_draws(scenario, ("u", "ms"))[0]
    d2 = mc_estimator_draws(scenario, ("u", "ms"))[0]
    assert np.array_equal(d1["u"], d2["u"])
    assert np.array_equal(d1["ms"], d2["ms"])
    # Same replications underlie every estimator: where selection picks U,
    # the MS draw equals the U draw bitwise.
    agree = d1["ms"] == d1["u"]
    assert agree.any()


# ---------------------------------------------------------------------------
# the memo of Monte Carlo cells


# Pairs of commands that read the same Monte Carlo cells.
_SHARED_SAMPLE_PAIRS = (
    (["figure1a"], ["figure1b"]),
    (["riskbound"], ["decay"]),
    (["figure2", "--method", "subsample"], ["figure2", "--method", "bootstrap"]),
)


def _output_bytes(out):
    """Each output file's bytes, without the path-dependent ``out =`` line."""
    return {
        path.name: b"".join(
            line for line in path.read_bytes().splitlines(True) if not line.startswith(b"out =")
        )
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("first, second", _SHARED_SAMPLE_PAIRS)
def test_outputs_do_not_depend_on_cells_an_earlier_command_cached(
    tmp_path, monkeypatch, first, second, workers
):
    flags = ["--reps=200", "--seed=11", f"--workers={workers}",
             *(["--n-grid=50,25"] if first == ["riskbound"] else ["--beta-grid=0.0,0.3"]),
             *(["--datasets-per-beta=3", "--b=20"] if first[0] == "figure2" else [])]
    cold = {}
    for k, argv in enumerate((first, second)):
        clear_memo()
        assert main([*argv, *flags, f"--out={tmp_path / 'cold' / str(k)}"]) == 0
        cold[k] = _output_bytes(tmp_path / "cold" / str(k))
    draws = []  # one entry per cell drawn from its noise stream
    real = modelavg.experiments._draw_products
    monkeypatch.setattr(modelavg.experiments, "_draw_products",
                        lambda *args: draws.append(args[1]) or real(*args))
    clear_memo()
    drawn = []
    for k, argv in enumerate((first, second)):
        del draws[:]
        assert main([*argv, *flags, f"--out={tmp_path / 'warm' / str(k)}"]) == 0
        assert _output_bytes(tmp_path / "warm" / str(k)) == cold[k]
        drawn.append(len(draws))
    assert drawn[0] > 0 and drawn[1] == 0  # the second command read every cell from the memo


def _memo_keys_after(*calls):
    """How many cells the memo holds after the ``(scenario, names, grid_index)`` draws,
    each checked against the same draw on an empty memo."""
    cold = []
    for scenario, names, i in calls:
        clear_memo()
        cold.append(mc_estimator_draws(scenario, names, i))
    clear_memo()
    for (scenario, names, i), expected in zip(calls, cold):
        got = mc_estimator_draws(scenario, names, i)
        for a, b in zip(got, expected):
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[k], b[k]) for k in a)
    return len(modelavg.experiments._memo)


def test_memo_key_holds_every_input_of_the_draw_and_nothing_else():
    base = _uniform_scenario(beta=0.0, reps=50, n=20, seed=3)
    names = ("ms", "ama", "bma_exact")
    params = base.params
    x1, x2 = base.design.x1, base.design.x2
    differing = {
        "design": replace(base, design=DesignMatrix(x1, x2[::-1].copy())),
        "-0.0": replace(base, params=replace(params, beta=-0.0)),
        "reps": replace(base, reps=51),
        "sigma": replace(base, params=replace(params, sigma=2.0)),
        "alpha": replace(base, params=replace(params, alpha=1.5)),
        "seed": replace(base, seed=4),
    }
    for label, other in differing.items():
        assert _memo_keys_after((base, names, 0), (other, names, 0)) == 2, label
    assert _memo_keys_after((base, names, 0), (base, names, 1)) == 2
    sharing = {
        "names": (base, ("r", "u", "bma_bic")),
        "pretest": (replace(base, pretest=PretestConfig(c=0.5, form="scaled")), names),
        "tuning": (replace(base, adaptive=AdaptiveConfig(a_n=2.0, k_n=3.0)), names),
        "prior": (replace(base, prior_scale=3.0, prior_p_r=0.2), names),
    }
    for label, (other, other_names) in sharing.items():
        assert _memo_keys_after((base, names, 0), (other, other_names, 0)) == 1, label


def test_memo_stays_within_its_byte_budget(monkeypatch):
    scenario = _uniform_scenario(beta=0.2, reps=100, n=20, seed=13)
    names = ("ms", "ama")
    big = replace(scenario, reps=1000)
    cold = []
    for cell, i in [(scenario, i) for i in range(6)] + [(big, 0)]:
        clear_memo()
        cold.append(mc_estimator_draws(cell, names, i)[0])
    entry = 2 * scenario.reps * 8  # p1 and p2
    budget = 2 * entry + 1
    monkeypatch.setattr(modelavg.experiments, "_MEMO_BYTES", budget)
    clear_memo()
    memo, held = modelavg.experiments._memo, []
    for i in (0, 1, 0, 2, 3, 4, 5, 4):
        draws = mc_estimator_draws(scenario, names, i)[0]
        assert draws.keys() == cold[i].keys()
        assert all(np.array_equal(v, cold[i][k]) for k, v in draws.items())
        assert modelavg.experiments._memo_used == sum(size for _, size in memo.values())
        assert modelavg.experiments._memo_used <= budget
        held.append([key[1] for key in memo])  # grid indices, least recent first
    # Least recently used goes first: reading cell 0 again keeps it over cell 1.
    assert held == [[0], [0, 1], [1, 0], [0, 2], [2, 3], [3, 4], [4, 5], [5, 4]]
    # An entry above the whole budget is not stored, and evicts nothing.
    draws = mc_estimator_draws(big, names, 0)[0]
    assert all(np.array_equal(v, cold[-1][k]) for k, v in draws.items())
    assert [key[1] for key in memo] == [5, 4]


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_memo_entries_are_two_read_only_product_arrays(sigma):
    clear_memo()
    scenario = _uniform_scenario(beta=0.1, sigma=sigma, reps=30, n=20, seed=19)
    names = ("bma_exact", "ama")
    cold = mc_estimator_draws(scenario, names)
    ((products, size),) = modelavg.experiments._memo.values()
    assert len(products) == 2 and size == 2 * scenario.reps * 8
    # <x1,y> and <x2,y> of each row of one whole (reps, n) draw of the cell's stream.
    design, params = scenario.design, scenario.params
    z = stream(scenario.seed, _TAG_TRUTH, 0).standard_normal((scenario.reps, design.n))
    y = params.alpha * design.x1 + params.beta * design.x2 + params.sigma * z
    for a, x in zip(products, (design.x1, design.x2)):
        assert np.array_equal(a, np.einsum("ij,j->i", y, x))
        with pytest.raises(ValueError):
            a[0] = 0.0
    # A read of the cached cell gives the floats of its first draw.
    hit = mc_estimator_draws(scenario, names)
    for a, b in zip(hit, cold):
        assert all(np.array_equal(a[k], b[k]) for k in names)
    clear_memo()


def test_memo_keeps_its_byte_count_under_threads(monkeypatch):
    # More threads than cores read and draw overlapping cells under a budget
    # of three cells, switching often: a lost update of the byte count, or a
    # cell stored or evicted twice, breaks the totals.
    scenario = _uniform_scenario(beta=0.1, reps=20, n=10, seed=23)
    names = ("ms", "ama")
    cold = {}
    for i in range(5):
        clear_memo()
        cold[i] = mc_estimator_draws(scenario, names, i)[0]
    budget = 3 * 2 * scenario.reps * 8
    monkeypatch.setattr(modelavg.experiments, "_MEMO_BYTES", budget)
    clear_memo()
    cells = [i % 5 for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda i: mc_estimator_draws(scenario, names, i)[0], cells, timeout=60
            ))
    finally:
        sys.setswitchinterval(interval)
    for i, draws in zip(cells, results):
        assert all(np.array_equal(v, cold[i][k]) for k, v in draws.items())
    memo = modelavg.experiments._memo
    assert modelavg.experiments._memo_used == sum(size for _, size in memo.values())
    assert 0 < len(memo) <= 3


# ---------------------------------------------------------------------------
# curves


def test_mse_curve_noiseless_zero():
    scenario = _integer_scenario(beta=0.0, sigma=0.0)
    rows = mse_curve([0.0], scenario)
    row = rows[0]
    for col in ("mse_ms", "mse_bma_bic", "mse_ama", "mse_u"):
        assert row[col] == 0.0
    assert row["reps"] == scenario.reps
    assert row["seed"] == scenario.seed


def test_mse_curve_c0_equals_u_exactly():
    scenario = _uniform_scenario(beta=0.15, reps=400, seed=12, c=0.0)
    rows = mse_curve([0.15], scenario)
    assert rows[0]["mse_ms"] == rows[0]["mse_u"]


def test_mse_curve_null_ranking_matches_variance_oracle():
    # At beta = 0 the restricted estimator's variance A = sigma^2/s11 is below
    # the unrestricted A + B; the Monte Carlo estimates must reproduce both.
    scenario = _uniform_scenario(beta=0.0, reps=5000, seed=14)
    stats = compute_design_stats(scenario.design)
    draws = mc_estimator_draws(scenario, ("r", "u"))[0]
    var_r = np.var(draws["r"] - 1.0, ddof=1)
    var_u = np.var(draws["u"] - 1.0, ddof=1)
    a = 1.0 / stats.s11
    b = stats.s12 ** 2 / (stats.s11 * stats.det)
    assert var_r == pytest.approx(a, rel=0.1)
    assert var_u == pytest.approx(a + b, rel=0.1)
    assert var_r < var_u


def test_ks_ratio_curve_degenerate_maps_to_50():
    scenario = _integer_scenario(beta=0.0, sigma=0.0)
    rows = ks_ratio_curve([0.0], scenario)
    assert rows[0]["ratio_ms"] == 50.0
    assert rows[0]["ratio_bma_bic"] == 50.0
    assert rows[0]["ratio_ama"] == 50.0


def test_ks_ratio_stays_within_0_100_when_ks_u_is_zero():
    from modelavg.experiments import _ks_ratio

    assert _ks_ratio(7 / 5000, 0.0) == 100.0
    assert all(_ks_ratio(k / 5000, 0.0) == 100.0 for k in range(1, 5001))


def test_ks_ratio_curve_columns():
    scenario = _uniform_scenario(reps=100, seed=3)
    rows = ks_ratio_curve([0.0, 0.5], scenario)
    expected = [
        "beta", "ratio_ms", "ratio_bma_bic", "ratio_ama",
        "ks_ms_r", "ks_ms_u", "ks_bma_r", "ks_bma_u", "ks_ama_r", "ks_ama_u",
        "reps", "seed",
    ]
    assert list(rows[0].keys()) == expected
    for row in rows:
        for col in expected:
            assert np.isfinite(row[col])


def test_ks_ratio_far_beta_near_100():
    scenario = _uniform_scenario(reps=2000, seed=15)
    rows = ks_ratio_curve([1.0], scenario)
    for col in ("ratio_ms", "ratio_bma_bic", "ratio_ama"):
        assert rows[0][col] > 85.0


def test_resampling_error_noiseless_zero():
    scenario = _integer_scenario(beta=0.0, sigma=0.0, reps=30)
    rows = resampling_error_curve([0.0], scenario, ResamplePlan(b=20), datasets_per_beta=3)
    assert rows[0]["err_ms"] == 0.0
    assert rows[0]["err_bma_bic"] == 0.0
    assert rows[0]["err_ama"] == 0.0
    assert rows[0]["excluded"] == 0
    assert rows[0]["datasets"] == 3
    assert rows[0]["b"] == 20


def test_resampling_error_subsample():
    scenario = _uniform_scenario(reps=300, seed=44, n=20)
    rows_b = resampling_error_curve([0.0], scenario, ResamplePlan(b=30, m=8), datasets_per_beta=2)
    assert rows_b[0]["err_ama"] > 0.0
    with pytest.raises(ValueError):
        resampling_error_curve([0.0], scenario, ResamplePlan(b=5, m=99), datasets_per_beta=1)


def _generic_engine(ds, pipeline, plan, seed):
    """Per-row reference for the resampling engine, one refit per replicate.

    Takes the layout_indices block of ``seed``, redraws singular rows in
    ascending order, refits the dataset of each row's (x, y) rows through
    ``pipeline.fit`` and returns sqrt(size) * (theta_star - theta_hat) per name.
    The dataset must keep its redraw budget.
    """
    block, redraws = layout_indices(np.random.default_rng(seed), ds.n, plan)
    originals, _ = pipeline.fit(ds)
    x1, x2, y = ds.design.x1, ds.design.x2, ds.y
    scale = np.sqrt(plan.size(ds.n))
    out = {name: [] for name in pipeline.names}
    for row in block:
        while True:
            try:
                star, _ = pipeline.fit(Dataset(DesignMatrix(x1[row], x2[row]), y[row]))
                break
            except (CollinearDesign, ZeroColumn):
                row = next(redraws)
        for name in pipeline.names:
            out[name].append(scale * (star[name] - originals[name]))
    return {name: np.array(values) for name, values in out.items()}


def _engine(ds, pipeline, plan, seed):
    """The engine's one row per name for ``ds`` alone, which must keep its budget."""
    (kept,), blocks = resampled_estimates([ds], pipeline, plan, [np.random.default_rng(seed)])
    assert kept
    return {name: block[0] for name, block in blocks.items()}


def _assert_engines_agree(ds, scenario, sigma, prior_scale=1.0, prior_p_r=0.5):
    names = ("r", "u", "ms", "bma_bic", "ama", "bma_exact")
    pipeline = Pipeline(names, sigma, scenario.pretest, scenario.adaptive, prior_scale, prior_p_r)
    for m in (None, 5, 12):
        plan = ResamplePlan(b=40, m=m)
        loop = _generic_engine(ds, pipeline, plan, 17)
        fast = _engine(ds, pipeline, plan, 17)
        for name in names:
            np.testing.assert_allclose(
                fast[name], loop[name], rtol=1e-9, atol=1e-9, err_msg=f"{name} m={m}",
            )


def _tiny_scenario():
    # n = 3 with x1 constant: a bootstrap row is singular exactly when it
    # repeats one row three times.
    return Scenario(
        design=DesignMatrix(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])),
        params=TrueParams(alpha=1.0, beta=0.3, sigma=1.0),
        pretest=PretestConfig(),
        adaptive=default_tuning(3),
        reps=5,
        seed=1,
    )


def test_fast_resampling_engine_matches_generic_engine():
    # The vectorized engine must reproduce the per-row refits: both take one
    # (b, size) index block from the same generator and redraw singular rows
    # in ascending order from one spawned generator, under the same budget,
    # so they refit the same resamples.
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    ds = draw_dataset(scenario)
    _assert_engines_agree(ds, scenario, 1.0)
    # A non-default coefficient prior must reach the exact-posterior weights.
    _assert_engines_agree(ds, scenario, 1.0, prior_scale=2.0, prior_p_r=0.3)
    # Redraw parity on a tiny design where duplicated rows are collinear.
    tiny = _tiny_scenario()
    ds3 = draw_dataset(tiny)
    pipeline3 = Pipeline(("u",), 1.0, tiny.pretest, tiny.adaptive)
    plan3 = ResamplePlan(b=60)
    np.testing.assert_allclose(
        _engine(ds3, pipeline3, plan3, 4)["u"],
        _generic_engine(ds3, pipeline3, plan3, 4)["u"],
        rtol=1e-9, atol=1e-9,
    )


def test_full_size_subsample_reproduces_dataset_in_both_engines():
    # m = n: every sorted index row is 0..n-1, so each replicate refits the
    # original dataset bit-for-bit and every centered replicate is exactly 0.
    names = ("r", "u", "ms", "bma_bic", "ama", "bma_exact")
    for n, sigma in ((12, 1.0), (50, 1.0), (9, 0.0)):
        scenario = _uniform_scenario(n=n, reps=10, seed=91, sigma=sigma)
        ds = draw_dataset(scenario)
        pipeline = Pipeline(names, sigma, scenario.pretest, scenario.adaptive)
        plan = ResamplePlan(b=30, m=n)
        loop = _generic_engine(ds, pipeline, plan, 1)
        fast = _engine(ds, pipeline, plan, 1)
        for name in names:
            assert np.all(loop[name] == 0.0), name
            assert np.all(fast[name] == 0.0), name


def test_singular_redraw_leaves_other_rows_on_their_block_row():
    # Each singular row is replaced from one generator spawned from the
    # caller's, in ascending row order; every other replicate is the refit of
    # its own block row.
    tiny = _tiny_scenario()
    ds = draw_dataset(tiny)
    pipeline = Pipeline(("u",), 1.0, tiny.pretest, tiny.adaptive)
    plan = ResamplePlan(b=60)
    block = plan.indices(np.random.default_rng(4), 3, plan.b)
    singular = np.array([len(set(row)) == 1 for row in block])
    assert 0 < singular.sum() < plan.b

    redraw_rng = np.random.default_rng(4).spawn(1)[0]
    expected_rows = []
    for row in block:
        while len(set(row)) == 1:
            row = redraw_rng.integers(0, 3, size=(1, 3))[0]
        expected_rows.append(row)
    x1, x2, y = ds.design.x1, ds.design.x2, ds.y
    expected = np.array([
        pipeline.fit(Dataset(DesignMatrix(x1[row], x2[row]), y[row]))[0]["u"]
        for row in expected_rows
    ])
    assert not np.array_equal(np.array(expected_rows)[singular], block[singular])

    scale = np.sqrt(3.0)
    loop = _generic_engine(ds, pipeline, plan, 4)
    fast = _engine(ds, pipeline, plan, 4)
    original = pipeline.fit(ds)[0]["u"]
    assert np.array_equal(loop["u"], scale * (expected - original))
    np.testing.assert_allclose(fast["u"], scale * (expected - original), rtol=1e-12, atol=1e-12)


def test_fast_resampling_engine_matches_generic_engine_at_sigma_zero():
    # Both engines take the sigma -> 0 limit, on noisy and on noiseless data.
    noisy = _uniform_scenario(n=12, reps=10, seed=91)
    _assert_engines_agree(draw_dataset(noisy), noisy, 0.0)
    null = _uniform_scenario(n=12, reps=10, seed=92, sigma=0.0)
    _assert_engines_agree(draw_dataset(null), null, 0.0)


def test_engine_replicates_equal_the_stacked_sums_engine():
    # One take of the products table and one sum per replicate add each
    # replicate's products in the order the six separate sums did: equal
    # floats for the bootstrap, subsamples, m = n and redrawn rows.
    names = ("r", "u", "ms", "bma_bic", "ama", "bma_exact")
    for sigma in (1.0, 0.0):
        scenario = _uniform_scenario(n=12, reps=10, seed=91, sigma=sigma)
        ds = draw_dataset(scenario)
        pipeline = Pipeline(names, sigma, scenario.pretest, scenario.adaptive)
        for m in (None, 5, 12):
            plan = ResamplePlan(b=40, m=m)
            _, expected = stacked_sums_engine([ds], pipeline, plan, [np.random.default_rng(17)])
            got = _engine(ds, pipeline, plan, 17)
            for name in names:
                assert np.array_equal(got[name], expected[name][0]), (sigma, m, name)
    tiny = _tiny_scenario()
    ds3 = draw_dataset(tiny)
    pipeline3 = Pipeline(names, 1.0, tiny.pretest, tiny.adaptive)
    for m in (None, 3):
        plan = ResamplePlan(b=60, m=m)
        block = plan.indices(np.random.default_rng(4), 3, plan.b)
        assert (m is None) == bool(np.any([len(set(row)) == 1 for row in block]))
        _, expected = stacked_sums_engine([ds3], pipeline3, plan, [np.random.default_rng(4)])
        got = _engine(ds3, pipeline3, plan, 4)
        for name in names:
            assert np.array_equal(got[name], expected[name][0]), (m, name)


_ALL_NAMES = ("r", "u", "ms", "bma_bic", "ama", "bma_exact")


def _fresh_rngs(count, seed):
    return [np.random.default_rng([seed, d]) for d in range(count)]


def test_a_chunk_equals_one_dataset_calls_bit_for_bit():
    # One engine call on 7 datasets gives each kept dataset, as its row of
    # every block, the floats of a call on it alone with a fresh copy of its
    # generator: the bootstrap and subsamples on n = 12, and on the n = 3
    # design, where several datasets redraw singular rows, each from its own
    # generator, and, with no redraws, some datasets mid-chunk spend their
    # budget. Each dropped dataset is one whose library call raises
    # TooManySingularResamples.
    cases = [
        (_uniform_scenario(n=12, reps=10, seed=91), ResamplePlan(b=10)),
        (_uniform_scenario(n=12, reps=10, seed=91), ResamplePlan(b=10, m=6)),
        (_tiny_scenario(), ResamplePlan(b=10)),
        (_tiny_scenario(), ResamplePlan(b=10, max_redraws=0)),
    ]
    dropped = 0
    for scenario, plan in cases:
        pipeline = scenario.pipeline(_ALL_NAMES)
        datasets = [draw_dataset(scenario, 0, d) for d in range(7)]
        kept, blocks = resampled_estimates(datasets, pipeline, plan, _fresh_rngs(7, 3))
        assert kept.shape == (7,) and kept.dtype == bool
        assert [blocks[name].shape for name in _ALL_NAMES] == 6 * [(kept.sum(), plan.b)]
        resampler = paired_bootstrap if plan.m is None else subsample_distribution
        lib = make_pipeline("ama", scenario.params.sigma, adaptive=scenario.adaptive)
        rows = iter(range(kept.sum()))
        for ds, rng, k, lib_rng in zip(datasets, _fresh_rngs(7, 3), kept, _fresh_rngs(7, 3)):
            (alone_kept,), alone = resampled_estimates([ds], pipeline, plan, [rng])
            assert alone_kept == k
            if not k:
                dropped += 1
                assert all(block.shape == (0, plan.b) for block in alone.values())
                with pytest.raises(TooManySingularResamples):
                    resampler(ds, lib, plan, lib_rng)
                continue
            r = next(rows)
            for name in _ALL_NAMES:
                assert np.array_equal(blocks[name][r], alone[name][0]), (plan, name)
            assert np.array_equal(resampler(ds, lib, plan, lib_rng).values, blocks["ama"][r])
    assert 0 < dropped < 7


def test_a_singular_dataset_fails_its_chunk_before_any_draw():
    # Its design is refused when built, before the chunk reaches the engine.
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    x1 = scenario.design.x1
    rngs = _fresh_rngs(4, 3)
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(CollinearDesign):
        datasets = [draw_dataset(scenario, 0, d) for d in range(3)]
        datasets.insert(2, Dataset(DesignMatrix(x1, 2.0 * x1), draw_dataset(scenario).y))
        resampled_estimates(datasets, scenario.pipeline(_ALL_NAMES), ResamplePlan(b=10), rngs)
    assert [rng.bit_generator.state for rng in rngs] == states
    assert all(rng.bit_generator.seed_seq.n_children_spawned == 0 for rng in rngs)


def test_datasets_drawn_on_one_design_share_its_one_stats_object():
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    datasets = [draw_dataset(scenario, 0, d) for d in range(3)]
    assert all(ds.design.stats is scenario.design.stats for ds in datasets)


def test_no_fit_rechecks_a_built_design(monkeypatch):
    # Once a design is built, every path reads design.stats: the fit, the
    # Monte Carlo draw, the one-dataset row and the resampling engine.
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    ds = draw_dataset(scenario)

    def refuse(design):
        raise AssertionError("a built design was checked again")

    for module in (modelavg.model, modelavg.estimators, modelavg.experiments, modelavg.resampling):
        monkeypatch.setattr(module, "compute_design_stats", refuse, raising=False)
    pipeline = scenario.pipeline(_ALL_NAMES)
    pipeline.fit(ds)
    clear_memo()
    mc_estimator_draws(scenario, _ALL_NAMES)
    single_fit(scenario)
    for plan in (ResamplePlan(b=10), ResamplePlan(b=10, m=6)):
        resampled_estimates([ds], pipeline, plan, [np.random.default_rng(0)])


def test_engine_refuses_no_datasets_and_mixed_n_before_any_draw():
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    pipeline, plan = scenario.pipeline(_ALL_NAMES), ResamplePlan(b=10)
    with pytest.raises(ValueError, match="got 0 with n in"):
        resampled_estimates([], pipeline, plan, [])
    with pytest.raises(ValueError, match="^1 datasets but 0 generators$"):
        resampled_estimates([draw_dataset(scenario)], pipeline, plan, [])
    other = draw_dataset(_uniform_scenario(n=13, reps=10, seed=91))
    datasets = [draw_dataset(scenario), other]
    rngs = _fresh_rngs(2, 3)
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ValueError, match=r"one n, got 2 with n in \[12, 13\]"):
        resampled_estimates(datasets, pipeline, plan, rngs)
    assert [rng.bit_generator.state for rng in rngs] == states


def test_engine_spawns_a_redraw_generator_only_for_a_dataset_that_redraws():
    # No singular resample at n = 12: the callers' generators spawn nothing.
    # On the n = 3 design a dataset that redraws spawns exactly one child
    # (the stream test_singular_redraw_leaves_other_rows_on_their_block_row
    # pins), and with no redraw budget a dataset that drops spawns none.
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    rngs, pipeline = _fresh_rngs(3, 3), scenario.pipeline(_ALL_NAMES)
    datasets = [draw_dataset(scenario, 0, d) for d in range(3)]
    kept, _ = resampled_estimates(datasets, pipeline, ResamplePlan(b=40), rngs)
    assert kept.all()
    assert [rng.bit_generator.seed_seq.n_children_spawned for rng in rngs] == [0, 0, 0]
    tiny = _tiny_scenario()
    for budget, spawned in ((None, 1), (0, 0)):
        rng = np.random.default_rng(4)
        plan = ResamplePlan(b=60, max_redraws=budget)
        kept, _ = resampled_estimates([draw_dataset(tiny)], tiny.pipeline(("u",)), plan, [rng])
        assert kept[0] == (budget is None)
        assert rng.bit_generator.seed_seq.n_children_spawned == spawned


def test_redraw_budget_boundary_on_the_tiny_design():
    # A dataset that needs k redraws keeps a budget of exactly k, spawning one
    # redraw generator; with k - 1 the engine drops it after spending them all
    # from that one generator, and the library call raises.
    tiny = _tiny_scenario()
    ds, pipeline = draw_dataset(tiny), tiny.pipeline(("u",))
    block, redraws = layout_indices(np.random.default_rng(4), 3, ResamplePlan(b=60))
    needed = 0
    for row in block:
        while len(set(row)) == 1:
            row, needed = next(redraws), needed + 1
    assert needed > 1
    lib = make_pipeline("u", tiny.params.sigma, adaptive=tiny.adaptive)
    for budget, keeps in ((needed, True), (needed - 1, False)):
        plan, rng = ResamplePlan(b=60, max_redraws=budget), np.random.default_rng(4)
        (kept,), blocks = resampled_estimates([ds], pipeline, plan, [rng])
        assert kept == keeps and blocks["u"].shape == (int(keeps), 60)
        assert rng.bit_generator.seed_seq.n_children_spawned == 1
        if keeps:
            assert np.array_equal(
                paired_bootstrap(ds, lib, plan, np.random.default_rng(4)).values, blocks["u"][0]
            )
        else:
            with pytest.raises(TooManySingularResamples, match=f"^exceeded {budget} singular"):
                paired_bootstrap(ds, lib, plan, np.random.default_rng(4))


def _engine_call_sizes(monkeypatch) -> list[int]:
    """The dataset count of every engine call figure2 makes from now on, in call order."""
    real = modelavg.experiments.resampled_estimates
    sizes = []

    def spy(datasets, *args):
        sizes.append(len(datasets))
        return real(datasets, *args)

    monkeypatch.setattr(modelavg.experiments, "resampled_estimates", spy)
    return sizes


def test_engine_calls_hold_at_most_the_replicate_budget_in_datasets(monkeypatch):
    # figure2 hands the engine max(1, _CALL_REPLICATES // b) datasets to a call.
    sizes = _engine_call_sizes(monkeypatch)
    monkeypatch.setattr(modelavg.experiments, "_CALL_REPLICATES", 30)
    scenario = _uniform_scenario(n=12, reps=30, seed=8)
    resampling_error_curve([0.0, 0.3], scenario, ResamplePlan(b=10), 7)
    assert sizes == 2 * [3, 3, 1]


def test_engine_call_sizes_do_not_follow_reps(monkeypatch):
    # The same calls at reps = 5 and 5000, and one dataset to a call once b
    # exceeds the budget.
    sizes = _engine_call_sizes(monkeypatch)
    budget = modelavg.experiments._CALL_REPLICATES
    for b, expected in ((budget // 3, [3, 3, 1]), (budget + 1, 7 * [1])):
        for reps in (5, 5000):
            sizes.clear()
            scenario = _uniform_scenario(n=12, reps=reps, seed=8)
            resampling_error_curve([0.3], scenario, ResamplePlan(b=b, m=6), 7)
            assert sizes == expected, (b, reps)


def _checked_error_rows(monkeypatch, scenario, grid, plan, datasets):
    """resampling_error_curve's rows, each asserted equal to error_row_reference's,
    and the shape of every block it passed to _ks_arrays, in call order."""
    blocks = []

    def recording(x, rows):
        blocks.append(np.shape(rows))
        return _ks_arrays(x, rows)

    monkeypatch.setattr(modelavg.experiments, "_ks_arrays", recording)
    rows = resampling_error_curve(grid, scenario, plan, datasets)
    for i, (beta, row) in enumerate(zip(grid, rows)):
        cell = replace(scenario, params=replace(scenario.params, beta=beta))
        expected = error_row_reference(cell, i, plan, datasets)
        assert row == {"beta": beta, **expected, "seed": scenario.seed}
    return rows, blocks


def test_chunked_error_rows_equal_rows_scored_one_dataset_at_a_time(monkeypatch):
    # figure2 scores each engine call's block, a row per kept dataset of a
    # chunk of max(1, _CALL_REPLICATES // b), in one KS call per estimator.
    # Its rows must be the very floats of scoring each dataset alone: here,
    # at a budget of 30 replicates, 7 datasets in chunks of 3, 3 and 1, and
    # on the n = 3 design with no redraws, 20 datasets in 7 chunks whose
    # blocks lose the excluded datasets, two of them every dataset.
    monkeypatch.setattr(modelavg.experiments, "_CALL_REPLICATES", 30)
    scenario = _uniform_scenario(n=12, reps=30, seed=8)
    for m in (None, 6):
        _, blocks = _checked_error_rows(
            monkeypatch, scenario, [0.0, 0.3], ResamplePlan(b=10, m=m), 7
        )
        assert blocks == 2 * (6 * [(3, 10)] + 3 * [(1, 10)])  # 3 estimators per chunk
    tiny = replace(_tiny_scenario(), reps=30)
    (row,), blocks = _checked_error_rows(
        monkeypatch, tiny, [0.3], ResamplePlan(b=10, max_redraws=0), 20
    )
    assert row["excluded"] > 0 and row["datasets"] == 6
    assert blocks == [(kept, 10) for kept in (1, 1, 0, 1, 2, 1, 0) for _ in range(3)]


def test_resampling_error_counts_excluded_datasets():
    # n = 2 with a zero redraw budget: roughly half the datasets lose their
    # first draw to a duplicated row and are excluded from the mean.
    design = DesignMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    scenario = Scenario(
        design=design,
        params=TrueParams(alpha=1.0, beta=0.0, sigma=1.0),
        pretest=PretestConfig(),
        adaptive=default_tuning(2),
        reps=50,
        seed=2,
    )
    rows = resampling_error_curve(
        [0.0], scenario, ResamplePlan(b=1, max_redraws=0), datasets_per_beta=12
    )
    row = rows[0]
    assert row["excluded"] > 0
    assert row["datasets"] == 12 - row["excluded"]
    assert np.isfinite(row["err_ms"])


def test_curves_deterministic_across_workers():
    scenario = _uniform_scenario(reps=300, seed=77)
    grid = [-0.5, 0.0, 0.5]
    base = mse_curve(grid, scenario, workers=1)
    par = mse_curve(grid, scenario, workers=4)
    assert base == par
    r1 = resampling_error_curve(grid, scenario, ResamplePlan(b=10), datasets_per_beta=2)
    r2 = resampling_error_curve(grid, scenario, ResamplePlan(b=10), datasets_per_beta=2, workers=3)
    assert r1 == r2
    # The n sweeps hand the pool their largest n first; rows keep the given order.
    n_scenario = make_scenario(n=50, seed=77, reps=200, beta=0.2)
    n_grid = (100, 25, 200, 50)
    for sweep in (risk_bound_sweep, weight_decay_sweep):
        rows = sweep(n_grid, n_scenario, workers=1)
        assert sweep(n_grid, n_scenario, workers=3) == rows
        assert [row["n"] for row in rows] == list(n_grid)


def _cells(n_values):
    return [({"k": k}, _uniform_scenario(n=n, reps=1)) for k, n in enumerate(n_values)]


def test_pool_starts_the_costliest_items_first():
    started, lock = [], threading.Lock()

    def row(i, cell):
        with lock:
            started.append(i)
        time.sleep(0.05)  # both workers are busy before a third item is taken
        return {"i": i}

    rows = _grid(_cells([25, 100, 50, 200]), workers=2, row=row)
    assert rows == [{"k": i, "i": i, "seed": 101} for i in range(4)]
    assert set(started[:2]) == {3, 1}


def test_a_failed_row_cancels_the_rows_not_yet_started():
    # Row 0 fails while the others block on an event that is set only later.
    # The worker that ran row 0 may take one queued row before the failure is
    # seen; no row after that may start.
    started, lock, release = [], threading.Lock(), threading.Event()

    def row(i, cell):
        with lock:
            started.append(i)
        if i == 0:
            raise RuntimeError("row 0 failed")
        release.wait(timeout=10)
        return {}

    timer = threading.Timer(0.5, release.set)
    timer.start()
    try:
        with pytest.raises(RuntimeError, match="row 0 failed"):
            _grid(_cells([50] * 12), workers=2, row=row)
    finally:
        timer.cancel()
        release.set()
    assert {0, 1} <= set(started) <= {0, 1, 2}


def _peak_blocks(fn, reps, n):
    """Peak traced allocation during ``fn()``, in (reps, n) float64 blocks."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (reps * n * 8)


@pytest.mark.parametrize("path", ["mc_estimator_draws", "risk_bound_sweep", "weight_decay_sweep"])
def test_monte_carlo_paths_hold_one_noise_block(path):
    # The noise is drawn in blocks far smaller than a (reps, n) array, and
    # nothing else of that size is made.
    reps, n = 2000, 400
    clear_memo()  # a cached cell would need no noise block at all
    scenario = _uniform_scenario(beta=0.3, n=n, reps=reps, seed=12)
    n_scenario = make_scenario(n=n, seed=12, reps=reps, beta=0.3)
    names = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    run = {
        "mc_estimator_draws": lambda: mc_estimator_draws(scenario, names),
        "risk_bound_sweep": lambda: risk_bound_sweep([n], n_scenario, workers=1),
        "weight_decay_sweep": lambda: weight_decay_sweep([n], n_scenario, workers=1),
    }[path]
    assert _peak_blocks(run, reps, n) <= 1.25


def test_mse_curve_even_for_symmetrized_design():
    # Center the uniform column so <x1, x2> ~ 0; the MSE curves are then even
    # in beta up to Monte Carlo error (3 standard errors).
    base = make_scenario(n=50, seed=6, reps=4000)
    x2c = base.design.x2 - base.design.x2.mean()
    design = DesignMatrix(base.design.x1, x2c)
    scenario = Scenario(
        design=design,
        params=TrueParams(alpha=1.0, beta=0.0, sigma=1.0),
        pretest=base.pretest,
        adaptive=base.adaptive,
        reps=4000,
        seed=6,
    )
    grid = [-0.6, -0.3, 0.3, 0.6]
    rows = {row["beta"]: row for row in mse_curve(grid, scenario)}

    def mc_se(beta, name):
        cell_index = grid.index(beta)
        draws = mc_estimator_draws(
            Scenario(
                design=design,
                params=TrueParams(alpha=1.0, beta=beta, sigma=1.0),
                pretest=base.pretest,
                adaptive=base.adaptive,
                reps=4000,
                seed=6,
            ),
            (name,),
            grid_index=cell_index,
        )[0][name]
        sq = (draws - 1.0) ** 2
        return float(np.std(sq, ddof=1) / np.sqrt(sq.size))

    for beta in (0.3, 0.6):
        for name in ("ms", "bma_bic", "ama", "u"):
            gap = abs(rows[beta][f"mse_{name}"] - rows[-beta][f"mse_{name}"])
            tol = 3.0 * (mc_se(beta, name) + mc_se(-beta, name))
            assert gap <= tol, (beta, name, gap, tol)


# ---------------------------------------------------------------------------
# sweeps


def test_n_cells_keep_the_run_s_pretest():
    # An n cell replaces the design and tuning only; like a beta cell it
    # keeps the run's pretest, so an 'ms' column on n cells reads the run's c.
    scenario = make_scenario(n=20, seed=3, reps=10, c=2.5, pretest_form="scaled")
    for (lead, cell), n in zip(_n_cells([10, 30], scenario), (10, 30)):
        assert lead == {"n": n} and cell.design.n == n
        assert cell.pretest == scenario.pretest != PretestConfig()
        assert cell.adaptive == default_tuning(n)


def test_risk_bound_sweep_null_envelope():
    # At beta = 0 the posterior weight drifts to R, whose normalized risk is
    # sigma^2 * n / s11 = 1 for intercept designs; every point must stay inside
    # a generous [R-risk, U-risk] envelope net of 3 MC standard errors.
    n_grid = [25, 50, 100, 200]
    rows = risk_bound_sweep(n_grid, make_scenario(n=50, seed=31, reps=3000, beta=0.0))
    for i, row in enumerate(rows):
        from modelavg.model import make_uniform_design

        design = make_uniform_design(row["n"], stream(31, 0, i))
        stats = compute_design_stats(design)
        upper = 1.5 * row["n"] * stats.s22 / stats.det
        assert row["n_risk"] - 3 * row["mc_se"] < upper
        assert row["n_risk"] + 3 * row["mc_se"] > 0.5
        assert row["mc_se"] > 0.0
    peak = max(rows, key=lambda r: r["n_risk"])
    print(f"\n[diagnostic] null-risk peak at n = {peak['n']} (n_risk = {peak['n_risk']:.3f})")


def test_risk_bound_sweep_rows_shape():
    rows = risk_bound_sweep([25, 50], make_scenario(n=50, seed=1, reps=500, beta=0.5))
    assert [r["n"] for r in rows] == [25, 50]
    assert list(rows[0].keys()) == ["n", "n_risk", "mc_se", "reps", "seed"]


def test_weight_decay_sweep_directions():
    rows_null = weight_decay_sweep([50, 800], make_scenario(n=50, seed=21, reps=3000, beta=0.0))
    # beta = 0: the weight hovers near 1/2 and sqrt(n) * p grows with n.
    assert 0.40 < rows_null[1]["mean_p_r"] <= 0.5
    assert rows_null[1]["mean_sqrtn_p_r"] > 2.0 * rows_null[0]["mean_sqrtn_p_r"]
    rows_alt = weight_decay_sweep([50, 800], make_scenario(n=50, seed=21, reps=3000, beta=0.5))
    # beta != 0: sqrt(n) * p collapses.
    assert rows_alt[1]["mean_sqrtn_p_r"] < 0.5 * rows_alt[0]["mean_sqrtn_p_r"]
    assert list(rows_alt[0].keys()) == ["n", "mean_p_r", "mean_sqrtn_p_r", "reps", "seed"]


def test_sweeps_draw_like_the_beta_curves():
    # Grid point 0 of an n sweep is the make_scenario cell of that n: the same
    # design, truth noise and settings, so the same draws to the last bit.
    scenario = make_scenario(n=50, seed=17, reps=300, beta=0.3)
    risk = risk_bound_sweep([50], scenario)[0]
    draws = mc_estimator_draws(scenario, ("bma_exact",))[0]["bma_exact"]
    assert risk["n_risk"] == float(50 * np.mean((draws - scenario.params.alpha) ** 2))
    decay = weight_decay_sweep([50], scenario)[0]
    p_r = mc_estimator_draws(scenario, ("ama",))[1]["ama"]
    assert decay["mean_p_r"] == float(np.mean(p_r))


def test_draw_dataset_deterministic():
    scenario = _uniform_scenario(reps=10, seed=5)
    d1 = draw_dataset(scenario)
    d2 = draw_dataset(scenario)
    assert np.array_equal(d1.y, d2.y)
    d3 = draw_dataset(scenario, dataset_index=1)
    assert not np.array_equal(d1.y, d3.y)


def test_empty_grids_rejected():
    scenario = _uniform_scenario(reps=10)
    calls = (
        lambda: mse_curve([], scenario),
        lambda: ks_ratio_curve([], scenario),
        lambda: resampling_error_curve([], scenario, ResamplePlan(b=5), datasets_per_beta=1),
        lambda: risk_bound_sweep([], scenario),
        lambda: weight_decay_sweep([], scenario),
        # reps = 0 would average over no replicates and report nan.
        lambda: risk_bound_sweep([25], replace(scenario, reps=0)),
        lambda: weight_decay_sweep([25], replace(scenario, reps=0)),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_figure2_refuses_no_datasets_and_a_grid_point_that_keeps_none():
    # A bootstrap resample of n = 2 rows repeats one row (and is singular)
    # with probability 1/2, so with b = 50 and no redraw budget every dataset
    # is excluded.
    scenario = _uniform_scenario(n=2, reps=10, seed=3)
    with pytest.raises(TooManySingularResamples, match="^all 3 datasets at beta=0.0 were"):
        resampling_error_curve([0.0], scenario, ResamplePlan(b=50, max_redraws=0), 3)
    with pytest.raises(ValueError, match="^datasets_per_beta = 0 must be >= 1$"):
        resampling_error_curve([0.0], scenario, ResamplePlan(b=5), 0)


def _scenario_with(**settings):
    return make_scenario(n=50, seed=1, reps=20, **settings)


@pytest.mark.parametrize("build, message", [
    (lambda: _scenario_with(prior_scale=0.0), "prior_scale = 0.0 must be finite and > 0"),
    (lambda: _scenario_with(prior_p_r=1.5), "prior_p_r = 1.5 must lie in (0, 1)"),
    (lambda: replace(_scenario_with(), prior_p_r=1.5), "prior_p_r = 1.5 must lie in (0, 1)"),
    (lambda: replace(_scenario_with(), pretest=None), "'ms' needs a pretest config"),
    (lambda: replace(_scenario_with(), adaptive=None), "'ama' needs an adaptive config"),
], ids=["prior_scale", "prior_p_r", "replaced_prior_p_r", "no_pretest", "no_tuning"])
def test_a_scenario_refuses_bad_kernel_settings_when_built(monkeypatch, build, message):
    # The error names the value as the scenario is made, not at a cell's first
    # draw on a worker thread.
    drawn = []
    monkeypatch.setattr(modelavg.experiments, "_draw_products", lambda *a: drawn.append(a))
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
    assert drawn == []


def test_subsample_size_one_is_refused_before_any_truth_sample(monkeypatch):
    # Every one-row subsample is singular, and a subsample cannot hold more
    # than n rows, so m = 1 and m = n + 1 must fail up front rather than after
    # the grid points' truth samples were drawn. m = 1 fails when the plan is
    # built.
    def no_truth_sample(*args, **kwargs):
        raise AssertionError("truth sample drawn before m was checked")

    monkeypatch.setattr(modelavg.experiments, "mc_estimator_draws", no_truth_sample)
    scenario = _uniform_scenario(reps=10, n=20)
    for m in (1, 21):
        with pytest.raises(ValueError, match=f"m = {m} "):
            resampling_error_curve(
                [0.0, 0.3, 0.6], scenario, ResamplePlan(b=5, m=m), datasets_per_beta=1,
                workers=3,
            )
