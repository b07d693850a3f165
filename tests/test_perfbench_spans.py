"""The benchmark's span tracer still finds every program name it wraps.

`perfbench/spans.py` swaps fluxsim functions for timing wrappers by module
attribute, so a renamed, moved or deleted function breaks traced benchmark
runs; these tests make that a unit-test failure instead, and check that
each readout subcommand's Langevin batch, the pulse refinement and the gate
Monte Carlo draws run under the wrapped names.
"""

import json

from conftest import load_perfbench


def test_instrument_then_restore_puts_every_original_back():
    spans = load_perfbench("spans")
    ins = spans.instrument(spans.Tracer())
    try:
        wrapped = list(ins._saved)
        assert wrapped
        for owner, attr, original in wrapped:
            current = spans._get(owner, attr)
            assert current is not original
            assert current.__wrapped__ is original
    finally:
        ins.restore()
    for owner, attr, original in wrapped:
        assert spans._get(owner, attr) is original, attr


def test_tracer_sees_one_langevin_batch_per_readout_subcommand(tmp_path):
    from fluxsim import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5},
        "chi_curve": {"f_min": 0.45, "f_max": 0.70, "step": 1e-3},
        "readout": {"t_max_ns": 50.0},
        "noise": {"n_draws": 3},
        "out_dir": str(tmp_path / "out")}), encoding="utf-8")
    spans = load_perfbench("spans")
    seen = []
    for sub in ("readout", "noise-readout"):
        tracer = spans.Tracer()
        ins = spans.instrument(tracer)
        try:
            assert cli.main([sub, "--config", str(cfg)]) == 0
        finally:
            ins.restore()
        seen.append((sub, tracer.calls.get("readout.langevin"),
                     tracer.counts.get("readout.langevin_steps")))
    # 50 ns at dt 0.05 ns: 1 000 steps, all rows in one call
    assert seen == [("readout", 1, 1000), ("noise-readout", 1, 1000)]


def test_tracer_sees_the_pulse_refinement_and_one_gate_draw_per_draw():
    from fluxsim import gates, noise
    from fluxsim.coupled import ResonatorParams
    from fluxsim.qubit import EnergyParams, FluxBias

    params = EnergyParams.from_ghz(4.75, 1.25, 1.5)
    res = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
    space = gates.build_gate_space(params, FluxBias(0.5), res)
    pulses = [gates.PulseParams(tau, gates.rabi_area_estimate(space, tau),
                                space.lam_drag, space.omega_01)
              for tau in (3.0, 4.0)]
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    ins = spans.instrument(tracer)
    try:
        gates.optimize_pulse(space, 3.0)
        noise.noisy_gate_error(params, res, pulses,
                               noise.NoiseSpec(1e-2, 2, 1234))
    finally:
        ins.restore()
    # the 3 x 3 seed grid, then the refinement under the wrapped
    # gates.minimize, then one draw (one gate space) per offset, each
    # evaluating both pulses
    nm_evals = tracer.counts["gates.nm_evals"]
    assert tracer.counts["gates.grid_evals"] == 9
    assert nm_evals > 0
    assert tracer.calls["gates.nelder_mead"] == 1
    assert tracer.calls["noise.gate_draw"] == 2
    assert tracer.calls["gates.build_space"] == 2
    assert tracer.calls["gates.evaluate"] == 9 + nm_evals + 2 * 2
