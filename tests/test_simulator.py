"""Closed-loop scenario runs and resilience metrics."""

import numpy as np
import pytest

from resilnet import (
    BINARY,
    BaselineSpec,
    ControlOptions,
    JamEvent,
    RandomLayout,
    RemovalBudget,
    ScenarioConfig,
    SpoofEvent,
    StepTrace,
    WeightedGraph,
    WeightProfile,
    compute_resilience_metrics,
    run_scenario,
)

RING6 = tuple(
    (
        (0.0, 0.0), (1.2, 0.0), (2.4, 0.0),
        (2.4, 1.2), (1.2, 1.2), (0.0, 1.2),
    )
)


def ring_config(steps=6, events=(), seed=7, **ctrl):
    ctrl.setdefault("outer_iters", 10)
    return ScenarioConfig(
        dimension=2,
        agent_ids=tuple(f"a{i}" for i in range(6)),
        agent_layers=("default",) * 6,
        initial_positions=RING6,
        profiles={"default": WeightProfile(BINARY, 1.6)},
        opts=ControlOptions(RemovalBudget(1), 0.25, **ctrl),
        steps=steps,
        events=tuple(events),
        rng_seed=seed,
        baseline=BaselineSpec(),
    )


def fake_trace(perf):
    """Metric-only trace stubs; graph and positions are irrelevant here."""
    g = WeightedGraph(2, [(0, 1)], [1.0])
    return [
        StepTrace(
            step=k,
            true_positions=np.zeros((2, 2)),
            reported_positions=np.zeros((2, 2)),
            realized_graph=g,
            lambda2_realized=float(p),
            lambda2_worst_anticipated=0.0,
            active_events=(),
            anticipated=(),
        )
        for k, p in enumerate(perf)
    ]


def test_quiet_run_stays_connected():
    traces = run_scenario(ring_config())
    assert len(traces) == 6
    assert [t.step for t in traces] == list(range(6))
    assert all(t.lambda2_realized > 0 for t in traces)
    assert all(t.active_events == () for t in traces)


def test_in_budget_jam_is_flagged_anticipated():
    jam = JamEvent(budget=1, start=2, end=4)
    traces = run_scenario(ring_config(events=(jam,)))
    for t in traces:
        if 2 <= t.step < 4:
            assert t.active_events == (0,)
            assert t.anticipated == (True,)
            assert t.lambda2_realized > 0  # the plan absorbed the loss
        else:
            assert t.active_events == ()


def test_over_budget_jam_is_flagged_unanticipated():
    jam = JamEvent(budget=2, start=2, end=3)
    traces = run_scenario(ring_config(events=(jam,)))
    assert traces[2].anticipated == (False,)


def test_scripted_jam_removes_named_links():
    jam = JamEvent(budget=1, start=1, end=2, edges=(("a0", "a1"),))
    traces = run_scenario(ring_config(steps=3, events=(jam,)))
    cut = traces[1].realized_graph
    assert ("a0", "a1") not in [
        (f"a{i}", f"a{j}") for i, j in cut.edges.tolist()
    ]


def test_spoof_perturbs_reports_not_truth():
    spoof = SpoofEvent(targets=("a2",), offset=(5.0, 0.0), start=1, duration=1)
    cfg = ring_config(steps=3, events=(spoof,))
    traces = run_scenario(cfg)
    t1 = traces[1]
    # reported = truth-at-start-of-step + offset for the spoofed agent; the
    # trace stores post-move truth, so compare via the previous step's truth
    prev_true = traces[0].true_positions
    np.testing.assert_allclose(t1.reported_positions[2], prev_true[2] + [5.0, 0.0])
    assert t1.anticipated == (False,)


def test_budget_schedule_overrides_anticipation():
    jam = JamEvent(budget=2, start=2, end=3)
    cfg = ring_config(events=(jam,))
    cfg = ScenarioConfig(
        **{
            **{f.name: getattr(cfg, f.name) for f in cfg.__dataclass_fields__.values()},
            "budget_schedule": ((2, 2),),
        }
    )
    traces = run_scenario(cfg)
    assert traces[2].anticipated == (True,)


def test_random_layout_is_seed_deterministic():
    base = ring_config(steps=2)
    fields = {f.name: getattr(base, f.name) for f in base.__dataclass_fields__.values()}
    fields.update(initial_positions=None, layout=RandomLayout((0.0, 0.0), (3.0, 3.0)))
    cfg = ScenarioConfig(**fields)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    np.testing.assert_array_equal(a[0].true_positions, b[0].true_positions)


def test_replay_is_deterministic():
    jam = JamEvent(budget=1, start=2, end=4)
    cfg = ring_config(events=(jam,))
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.true_positions, tb.true_positions)
        assert ta.realized_graph == tb.realized_graph
        assert ta.lambda2_realized == tb.lambda2_realized


def test_metrics_hand_example():
    # perf (4,4,1,2,3,4), onset 2: baseline 4, worst dip 3, 90% level 3.6
    # reached at step 5, shortfall 3+2+1+0 = 6
    report = compute_resilience_metrics(fake_trace([4, 4, 1, 2, 3, 4]), BaselineSpec(), onset=2)
    assert report.baseline == pytest.approx(4.0)
    assert report.max_degradation == pytest.approx(3.0)
    assert report.recovery_step == 5
    assert report.recovered
    assert report.total_loss == pytest.approx(6.0)
    assert report.recovery_level == pytest.approx(3.6)


def test_metrics_constant_trace_all_zero():
    report = compute_resilience_metrics(fake_trace([2, 2, 2, 2]), BaselineSpec(), onset=1)
    assert report.max_degradation == 0.0
    assert report.total_loss == 0.0
    assert report.recovery_step == 1
    assert report.recovered


def test_metrics_unrecovered_trace():
    report = compute_resilience_metrics(fake_trace([4, 4, 1, 1, 1]), BaselineSpec(), onset=2)
    assert not report.recovered
    assert report.recovery_step == 4  # last step, by convention
    assert report.total_loss == pytest.approx(9.0)


def test_metrics_fixed_baseline_and_override():
    trace = fake_trace([1, 3, 3, 3])
    report = compute_resilience_metrics(
        trace, BaselineSpec("fixed", 3.0, recovery_fraction=0.5), onset=0
    )
    assert report.baseline == 3.0
    assert report.recovery_level == pytest.approx(1.5)
    assert report.recovery_step == 1  # perf[0] = 1 sits below the 1.5 target
    assert report.total_loss == pytest.approx(2.0)


def test_metrics_input_validation():
    with pytest.raises(ValueError, match="empty"):
        compute_resilience_metrics([], BaselineSpec(), onset=0)
    with pytest.raises(ValueError, match="onset"):
        compute_resilience_metrics(fake_trace([1, 2]), BaselineSpec(), onset=5)
    with pytest.raises(ValueError, match="before onset"):
        compute_resilience_metrics(fake_trace([1, 2]), BaselineSpec(), onset=0)


def test_config_validation():
    with pytest.raises(ValueError):
        ring_config(steps=0)
    good = ring_config()
    fields = {f.name: getattr(good, f.name) for f in good.__dataclass_fields__.values()}
    fields.update(agent_ids=("a0",) * 6)
    with pytest.raises(ValueError, match="unique"):
        ScenarioConfig(**fields)
