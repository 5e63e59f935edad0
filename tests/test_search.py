from __future__ import annotations

import hashlib
import math
from unittest import mock

import numpy as np
import pytest

from hhcert import convexity, search
from hhcert.convexity import AlphaM, GridSpec, RConvex, check_alpha_m_convex, check_r_convex
from hhcert.expr import Const, Interval, parse, to_string
from hhcert.hh import run_verifier
from hhcert.search import (STRESS_THEOREMS, ScanRow, StressConfig,
                           random_convex_expr, scan_csv, stress, summary_json,
                           summary_to_dict, tightness_scan)

UNIT = Interval(0.0, 1.0)
THREE_INTERVALS = (UNIT, Interval(0.0, 3.0), Interval(0.5, 2.0))

# ------------------------- config validation -------------------------


def test_stress_config_validation():
    StressConfig(seed=0, trials=1)
    with pytest.raises(ValueError):
        StressConfig(trials=0)
    with pytest.raises(ValueError):
        StressConfig(seed=-1)
    with pytest.raises(ValueError):
        StressConfig(intervals=())
    with pytest.raises(ValueError):
        StressConfig(alpha_pool=(0.5,), m_pool=())      # must come in pairs
    with pytest.raises(ValueError):
        StressConfig(alpha_pool=(), m_pool=(), r_pool=())  # no family at all
    with pytest.raises(ValueError):
        StressConfig(trials=2, max_attempts=0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            StressConfig(tol=bad)
        with pytest.raises(ValueError):
            StressConfig(quad_tol=bad)


def test_params_pool_is_product():
    cfg = StressConfig(alpha_pool=(0.5, 1.0), m_pool=(1.0,), r_pool=(0.0,))
    pool = cfg.params_pool()
    assert AlphaM(0.5, 1.0) in pool
    assert AlphaM(1.0, 1.0) in pool
    assert RConvex(0.0) in pool
    assert len(pool) == 3


# ------------------------- generator -------------------------


def test_generator_deterministic():
    draw = lambda: random_convex_expr(np.random.default_rng(42),
                                      AlphaM(1.0, 1.0), UNIT)
    assert draw() == draw()


def test_generator_output_recertifies():
    grid = GridSpec(17, 33)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        e = random_convex_expr(rng, AlphaM(1.0, 1.0), UNIT, grid=grid)
        assert e is not None
        assert check_alpha_m_convex(e, UNIT, 1.0, 1.0, grid).passed


# seeded draws at alpha = 1 and r >= 1, whose members are accepted by proof:
# on [0, 1] the grid accepts every candidate a proof accepts, so each seed
# draws the same member either way
_ALPHA_ONE = [
    "0.7221267490867731*x + 0.2789233621749259*(exp(x) - 1) + 1.6732229186004768*x^3",
    "1.9133114685703867*x + 1.9101365324901767*x^2",
    "0.7723595009747157*(exp(x) - 1) + 0.4108528987364196*(exp(x) - 1) + 1.3001759204398944",
    "0.6644183865431745*x^2 + 1.2687835631126436 + 1.007972145413829*x^2",
    "1.1448232174251327 + 0.39146304181730385 + 1.312872705991302",
    "1.6638963820388641 + 0.7501524151542478*(exp(x) - 1) + 0.34437872916789875*x",
    "0.8507240221733423*x + 0.9053693397787941",
    "1.820124151696757*x + 0.6441125824835358*x + 0.7752909985946446",
]
_R_ONE = ["1.1975571354359105", "0.9660984886460322"] + _ALPHA_ONE[2:]
GENERATOR_GOLDEN = {
    AlphaM(1.0, 0.5): [
        "0.7221267490867731*(exp(x) - 1) + 0.2789233621749259*x^2 + 1.847322260236013*x^4",
        "1.9133114685703867*(exp(x) - 1) + 1.9101365324901767*x^2",
        "0.7723595009747157*x^3 + 0.4108528987364196*x + 1.5249809219206405*(exp(x) - 1)",
        "0.6644183865431745*x^2 + 1.2687835631126436*x + 1.007972145413829*x^2",
        "1.1448232174251327*x + 0.39146304181730385*x + 1.312872705991302*x",
        "1.6638963820388641*x + 0.7501524151542478*(exp(x) - 1)"
        " + 0.34437872916789875*(exp(x) - 1)",
        "0.8507240221733423*(exp(x) - 1) + 0.9053693397787941*x",
        "1.820124151696757*(exp(x) - 1) + 0.6441125824835358*(exp(x) - 1)"
        " + 0.7752909985946446*x",
    ],
    AlphaM(1.0, 1.0): _ALPHA_ONE,
    RConvex(1.0): _R_ONE,
    RConvex(2.0): _R_ONE,
}


@pytest.mark.parametrize("params", list(GENERATOR_GOLDEN), ids=str)
def test_generator_golden(params):
    drawn = [random_convex_expr(np.random.default_rng(seed), params, UNIT)
             for seed in range(8)]
    assert [to_string(e) for e in drawn] == GENERATOR_GOLDEN[params]


def test_generator_rejects_out_of_class_atoms():
    # pure linear atoms never satisfy the (0.5, 1) class, so every draw
    # is rejected and the generator gives up
    rng = np.random.default_rng(0)
    e = random_convex_expr(rng, AlphaM(0.5, 1.0), UNIT, atoms=("linear",))
    assert e is None


def test_generator_r_family():
    grid = GridSpec(9, 17)
    rng = np.random.default_rng(11)
    e = random_convex_expr(rng, RConvex(1.0), UNIT, grid=grid,
                           atoms=("power", "const"))
    if e is not None:
        assert check_r_convex(e, UNIT, 1.0, grid).passed


# ------------------------- stress campaign -------------------------


def test_stress_deterministic_byte_identical():
    cfg = StressConfig(seed=7, trials=6)
    assert summary_json(stress(cfg)) == summary_json(stress(cfg))


def test_stress_counts_are_consistent():
    cfg = StressConfig(seed=3, trials=8)
    s = stress(cfg)
    assert s.trials == 8
    assert set(s.verifiers) == set(STRESS_THEOREMS)
    for st_ in s.verifiers.values():
        assert st_.passes + st_.fails + st_.skips == s.trials


def test_stress_sound_at_default_pool():
    s = stress(StressConfig(seed=19, trials=12))
    for tid, st_ in s.verifiers.items():
        assert st_.fails == 0, tid
        if st_.min_slack is not None:
            assert st_.min_slack >= -1e-8
    assert s.worst_failure is None


def test_stress_r_pool_runs_mean_bound_verifiers():
    s = stress(StressConfig(seed=5, trials=12, alpha_pool=(), m_pool=(),
                            r_pool=(1.0,)))
    ran = s.verifiers["gill_r"].passes + s.verifiers["gr_dominated"].passes
    assert ran > 0
    for st_ in s.verifiers.values():
        assert st_.fails == 0
    # the scaled-argument theorems do not apply to the r family
    assert s.verifiers["t1_first"].skips == 12


def test_stress_small_alpha_rejects_candidates():
    s = stress(StressConfig(seed=2, trials=6, alpha_pool=(0.5,), m_pool=(1.0,)))
    total = sum(st_.passes + st_.fails for st_ in s.verifiers.values())
    assert total > 0
    assert s.rejected_candidates > 0 or s.rejected_trials == 0


@pytest.mark.parametrize("config, digest", [
    (StressConfig(seed=0, trials=10, alpha_pool=(1.0,), m_pool=(1.0,)),
     "3989f5c964eece8848aaddee1567a98a32393f88740c7e40732a4e6debbc87d5"),
    (StressConfig(seed=1, trials=10, alpha_pool=(0.5, 0.75, 1.0),
                  m_pool=(0.5, 0.75, 1.0)),
     "83e75821f8288bf9a7ddf7c77cf760b9d5eb60f7247c6a6efb1bb05c8864877a"),
    (StressConfig(seed=2, trials=10, alpha_pool=(), m_pool=(),
                  r_pool=(-1.0, 0.0, 1.0, 2.0)),
     "7271379689801d36052673b17e2f495044f2cc80bf97ab8be0197d43eb044e97"),
    *((StressConfig(seed=seed, trials=40, intervals=(UNIT, Interval(0.0, 3.0)),
                    alpha_pool=(0.5, 1.0), m_pool=(0.5, 1.0),
                    r_pool=(-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)), digest)
      for seed, digest in enumerate((
          "705f9b05bed19140f12a05b21f52fd7d24f74c369cf69437bef6d37abe30e5ac",
          "1aaec0f46445a70d7794ebc4203e8c2d33aafdb3a7a08187dbad2c34722e0746",
          "1ad2256def993d44ece37833992f64da06990d0820c73ac503776f317c2bb21e"))),
    (StressConfig(seed=0, trials=20, intervals=(UNIT, Interval(0.0, 3.0)),
                  alpha_pool=(), m_pool=(), r_pool=(-1.0, 0.0, 0.5, 1.0, 2.0, 3.0),
                  tol=1e-300),
     "6a3102da7e76454715999e350bb79f595b47cd4529851873a8a5df212c5af290"),
    (StressConfig(seed=3, trials=40, intervals=THREE_INTERVALS, alpha_pool=(1.0,),
                  m_pool=(0.5, 0.75, 1.0)),
     "ce55dee6094fe52a06ea49a708153d2382b7f37650613bf9cb84c9d0dc1ace70"),
    (StressConfig(seed=4, trials=40, intervals=THREE_INTERVALS, alpha_pool=(), m_pool=(),
                  r_pool=(1.0, 2.0, 3.0)),
     "a284ce5025576628be846268dea7c746e468dc5999e1aa964aceff82a0d844aa"),
], ids=["alpha_m_one", "alpha_m_pools", "r_pool",
        "mixed_seed0", "mixed_seed1", "mixed_seed2", "r_pool_worst_failure",
        "alpha_one_proved", "r_ge_one_proved"])
def test_stress_summary_golden(config, digest):
    # the README campaigns at 10 trials, three mixed (alpha, m) and r
    # campaigns over two intervals, an r campaign whose tolerance is so
    # tight that worst_failure is set, and alpha = 1 and r >= 1 campaigns,
    # whose members are accepted by proof rather than by the grid: a seeded
    # summary is byte-identical across versions, not only between two runs
    # of one version
    text = summary_json(stress(config))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_alpha_one_and_r_ge_one_members_need_no_grid_scan():
    # every candidate the construction draws at alpha = 1 or r >= 1 is proved
    # inside passes, so only the r-dominance check of a pair still scans the
    # grid, and evaluate meets no other tree on grid points
    config = StressConfig(seed=6, trials=30, intervals=THREE_INTERVALS, alpha_pool=(1.0,),
                          m_pool=(0.5, 1.0), r_pool=(1.0, 2.0))
    scanned, evaluated = [], []
    grid_rows, evaluate = convexity._grid_rows, convexity.evaluate

    def spy_rows(f, g, *args):
        scanned.append((f, g))
        return grid_rows(f, g, *args)

    def spy_evaluate(f, x):
        evaluated.append(f)
        return evaluate(f, x)
    with mock.patch.object(convexity, "_grid_rows", spy_rows), \
            mock.patch.object(convexity, "evaluate", spy_evaluate):
        summary = summary_json(stress(config))
    assert scanned and all(g is not None for _, g in scanned)
    assert evaluated and set(evaluated) <= {e for pair in scanned for e in pair}
    assert summary == summary_json(stress(config))


def test_summary_serialization_shape():
    s = stress(StressConfig(seed=1, trials=3))
    d = summary_to_dict(s)
    assert list(d.keys()) == ["trials", "rejected_trials",
                              "rejected_candidates", "verifiers",
                              "worst_failure"]
    for entry in d["verifiers"].values():
        assert list(entry.keys()) == ["pass", "fail", "skipped", "min_slack"]


# ------------------------- tightness scan -------------------------


def test_scan_single_point_matches_verifier():
    f, g = parse("0.5*x^2"), parse("1.5*x^2")
    rows = tightness_scan(f, g, UNIT, (1.0,), (1.0,))
    assert [r.theorem_id for r in rows] == ["t1_first", "t1_second", "t2"]
    for row in rows:
        rep = run_verifier(row.theorem_id, f, g, a=0.0, b=1.0, alpha=1.0,
                           m=1.0, hypotheses=False)
        assert row.slack == rep.slack
        assert row.holds == rep.holds
        assert not row.skipped


def test_scan_equal_pair_slack_zero():
    rows = tightness_scan(parse("x^2"), parse("x^2"), UNIT,
                          (0.5, 1.0), (0.5, 1.0))
    assert len(rows) == 2 * 2 * 3
    for row in rows:
        if row.theorem_id == "t1_first":
            assert abs(row.slack) <= 1e-9


def test_scan_zero_against_square():
    rows = tightness_scan(Const(0.0), parse("x^2"), UNIT, (1.0,), (1.0,))
    by_id = {r.theorem_id: r for r in rows}
    assert by_id["t2"].slack == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_scan_marks_domain_errors_skipped():
    # pole at the interval midpoint, which the quadrature rule samples
    rows = tightness_scan(parse("1/(x - 0.5)"), parse("x^2"), UNIT,
                          (1.0,), (1.0,))
    assert all(r.skipped for r in rows)
    assert all(math.isnan(r.slack) for r in rows)
    assert all(not r.holds for r in rows)


def test_scan_csv_golden():
    rows = [ScanRow(1.0, 0.5, "t2", 0.25, True),
            ScanRow(0.5, 0.5, "t1_first", float("nan"), False, True)]
    text = scan_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,m,theorem,slack,holds"
    assert lines[1] == "1,0.5,t2,0.25,true"
    assert lines[2] == "0.5,0.5,t1_first,nan,skipped"


def test_scan_csv_round_trips_through_float():
    rows = tightness_scan(parse("0.5*x^2"), parse("1.5*x^2"), UNIT,
                          (0.5,), (0.75,))
    text = scan_csv(rows)
    for line, row in zip(text.strip().split("\n")[1:], rows):
        parts = line.split(",")
        assert float(parts[0]) == row.alpha
        assert float(parts[3]) == row.slack
